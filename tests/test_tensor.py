"""Contraction kernels, the loss primitive, and taped differentiation."""

import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import sin, softmax_cross_entropy

from meim import tensor as T
from meim.errors import ShapeError, ValidationError
from meim.tensor import (
    GradTape,
    Tensor,
    backward,
    finite_diff_check,
    matmul_softmax_cross_entropy,
)


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
            return [loss.item()] + backward(tape, loss, [h, t])

        oracle = loss_and_grads(
            lambda h, t: softmax_cross_entropy(T.matmul(h, t.swapaxes(0, 1)), dense))
        fused = loss_and_grads(
            lambda h, t: matmul_softmax_cross_entropy(h, t, offsets, ids, weights))
        assert fused[0] == pytest.approx(oracle[0], rel=1e-12)
        for got, want in zip(fused[1:], oracle[1:]):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_sparse_weight_validation(self):
        with pytest.raises(ValidationError):
            matmul_softmax_cross_entropy(
                Tensor(np.zeros((1, 2))), Tensor(np.zeros((4, 2))),
                np.array([0, 2]), np.array([0, 1]), np.array([0.5, 0.6])
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
                loss = matmul_softmax_cross_entropy(h, t, offsets, ids, w) * 0.3
            return [np.float64(loss.item())] + backward(tape, loss, [h, t])

        # the whole score matrix as one block, in plain numpy
        at = (np.repeat(np.arange(10), np.diff(offsets)), ids)
        logits = np.matmul(hidden, table.T)
        buf = logits - logits.max(axis=1, keepdims=True)
        np.exp(buf, out=buf)
        buf /= buf.sum(axis=1, keepdims=True)
        loss = -float(w @ np.log(np.maximum(buf[at], 1e-300))) * 0.3
        buf[at] -= w
        reference = [np.float64(loss), (buf @ table) * 0.3, ((hidden.T @ buf) * 0.3).T]

        # the fused op normalises one row at a time; the reference, the whole matrix at once
        for a, ref in zip(run(), reference):
            np.testing.assert_array_equal(a, ref)

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
                loss = loss_fn(h, t) * 0.3
            return [np.float64(loss.item())] + backward(tape, loss, [h, t])

        oracle = run(lambda h, t: softmax_cross_entropy(T.matmul(h, t.swapaxes(0, 1)), dense))
        monkeypatch.setattr(T, "_SCORE_BLOCK_BYTES", 3 * 7 * 8)  # blocks of 3, 3, 3 and 1 rows
        monkeypatch.setattr(T, "_TABLE_COLS", 3)  # table-gradient products of 3, 3 and 1 entities

        def fused(h, t):
            return matmul_softmax_cross_entropy(h, t, offsets, ids, w)

        for a, want in zip(run(fused), oracle):
            np.testing.assert_allclose(a, want, rtol=1e-12, atol=1e-12)


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
            loss = (out * up).sum()
        gx, gm = backward(tape, loss, [xt, mt])

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


class TestBackward:
    def test_quadratic_gradient(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        with GradTape() as tape:
            loss = T.square(p).sum()
        (grad,) = backward(tape, loss, [p])
        np.testing.assert_allclose(grad, [2.0, 4.0], rtol=1e-15)

    def test_unused_leaf_gets_zero(self):
        used = Tensor([3.0], requires_grad=True)
        unused = Tensor([[1.0, 2.0]], requires_grad=True)
        with GradTape() as tape:
            loss = T.square(used).sum()
        g_used, g_unused = backward(tape, loss, [used, unused])
        np.testing.assert_allclose(g_used, [6.0])
        np.testing.assert_array_equal(g_unused, np.zeros((1, 2)))

    def test_reuse_accumulates_sum_of_single_use_gradients(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=4)

        p = Tensor(x, requires_grad=True)
        with GradTape() as tape:
            loss = (T.square(p).sum() + (p * 3.0).sum())
        (g_both,) = backward(tape, loss, [p])

        p1 = Tensor(x, requires_grad=True)
        with GradTape() as tape1:
            l1 = T.square(p1).sum()
        (g1,) = backward(tape1, l1, [p1])
        p2 = Tensor(x, requires_grad=True)
        with GradTape() as tape2:
            l2 = (p2 * 3.0).sum()
        (g2,) = backward(tape2, l2, [p2])

        np.testing.assert_allclose(g_both, g1 + g2, rtol=1e-15)

    def test_shared_upstream_gradient_not_aliased(self):
        # a + a routes the same adjoint object to both parent slots
        a = Tensor([1.0, 1.0], requires_grad=True)
        b = Tensor([2.0, 2.0], requires_grad=True)
        with GradTape() as tape:
            loss = (a + b).sum() + (a + b).sum()
        ga, gb = backward(tape, loss, [a, b])
        np.testing.assert_allclose(ga, [2.0, 2.0])
        np.testing.assert_allclose(gb, [2.0, 2.0])

    def test_non_scalar_loss_rejected(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        with GradTape() as tape:
            out = T.square(p)
        with pytest.raises(ShapeError, match="scalar"):
            backward(tape, out, [p])

    @pytest.mark.parametrize("first", ["kept_array", "read_only_broadcast"])
    def test_gather_adds_distinct_rows_like_add_at(self, first):
        rng = np.random.default_rng(21)
        p = Tensor(rng.normal(size=(6, 2, 3)), requires_grad=True)
        idx = np.array([4, 1, 4, 4, 0, 1])
        w = rng.normal(size=(6, 2, 3))
        kept = rng.normal(size=(6, 2, 3))
        snapshot = kept.copy()
        with GradTape() as tape:
            gathered = (T.gather_rows(p, idx) * w).sum()
            # recorded after the gather, so its adjoint reaches p first
            if first == "kept_array":
                other = T._node(np.float64(0.0), (p,), lambda g: (kept,))
            else:
                other = p.sum()
            loss = gathered + other
        (grad,) = backward(tape, loss, [p])
        expected = np.zeros_like(p.data)
        np.add.at(expected, idx, w)
        expected = (kept if first == "kept_array" else np.ones_like(kept)) + expected
        np.testing.assert_array_equal(grad, expected)
        np.testing.assert_array_equal(kept, snapshot)

    def test_replay_releases_the_graph(self):
        rng = np.random.default_rng(22)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        with GradTape() as tape:
            h = T.matmul(x, Tensor(rng.normal(size=(3, 5))))
            forward_buffer = weakref.ref(h.data)
            loss = T.square(h).sum()
        del h
        recorded = len(tape)
        (grad,) = backward(tape, loss, [x])
        assert forward_buffer() is None
        assert len(tape) == recorded == 3
        assert np.isfinite(loss.item()) and grad.shape == (4, 3)
        with pytest.raises(ValidationError, match="already replayed"):
            backward(tape, loss, [x])

    def test_tape_records_in_execution_order(self):
        p = Tensor([1.0], requires_grad=True)
        with GradTape() as tape:
            a = p * 2.0
            b = a + 1.0
            c = T.square(b)
        assert tape._nodes == [a, b, c]


def fd_case(name, build):
    """One gradient-vs-finite-difference case: build(params) -> scalar Tensor."""
    return pytest.param(build, id=name)


def _rand(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


GRAD_CASES = [
    fd_case("add_broadcast", lambda ps: (ps[0] + ps[1].reshape((1, 3))).sum()),
    fd_case("sub", lambda ps: (ps[0] - ps[1].reshape((1, 3))).sum()),
    fd_case("mul_broadcast", lambda ps: (ps[0] * ps[1].reshape((1, 3))).sum()),
    fd_case("square", lambda ps: T.square(ps[0]).sum()),
    fd_case("abs_pow3", lambda ps: T.abs_pow(ps[0], 3).sum()),
    fd_case("sin", lambda ps: sin(ps[0]).sum()),
    fd_case("reshape", lambda ps: T.square(ps[0].reshape((3, 2))).sum()),
    fd_case("swapaxes", lambda ps: T.square(ps[0].swapaxes(0, 1)).sum()),
    fd_case(
        "matmul",
        lambda ps: (ps[0] @ ps[2].swapaxes(0, 1)).sum(),
    ),
    fd_case(
        "matmul_broadcast_batch",
        lambda ps: T.matmul(ps[2].reshape((1, 2, 3)), ps[3]).sum(),
    ),
    fd_case(
        "grouped_matmul",  # rows through mats[2]^T, mats[0] and mats[2]; mats 1, 3, 4, 5 unused
        lambda ps: T.square(T.grouped_matmul(ps[0].reshape((3, 1, 2)), ps[3].reshape((6, 1, 2, 2)),
                                             np.array([8, 0, 2]))).sum(),
    ),
    fd_case("gather", lambda ps: T.square(T.gather_rows(ps[0], np.array([1, 0, 1]))).sum()),
    fd_case("sum_axis", lambda ps: T.square(ps[0].sum(axis=0)).sum()),
    fd_case("sum_keepdims", lambda ps: T.square(ps[0].sum(axis=1, keepdims=True)).sum()),
    fd_case(
        "softmax_ce",
        lambda ps: softmax_cross_entropy(
            ps[0], np.array([[1.0, 0.0, 0.0], [0.25, 0.25, 0.5]])
        ),
    ),
    fd_case(
        "softmax_ce_sparse",
        lambda ps: matmul_softmax_cross_entropy(
            ps[0], ps[3].reshape((8, 3)),
            np.array([0, 1, 3]), np.array([2, 0, 7]), np.array([1.0, 0.5, 0.5])
        ),
    ),
]


@pytest.mark.parametrize("build", GRAD_CASES)
def test_gradients_match_central_differences(build):
    params = [
        Tensor(_rand((2, 3), 1), requires_grad=True),
        Tensor(_rand((3,), 2), requires_grad=True),
        Tensor(_rand((2, 3), 3), requires_grad=True),
        Tensor(_rand((2, 3, 4), 4), requires_grad=True),
    ]
    assert finite_diff_check(build, params) < 1e-4


def test_dropout_gradient_with_fixed_mask():
    x = Tensor(_rand((4, 5), 9), requires_grad=True)

    def f(ps):
        rng = np.random.default_rng(123)  # same mask on every probe
        return T.square(T.dropout(ps[0], 0.4, rng, training=True)).sum()

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
    def test_training_normalizes_batch(self):
        bn = T.BatchNorm(3)
        x = Tensor(_rand((64, 3), 21))
        out = bn(x, training=True)
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data.std(axis=0), 1.0, atol=1e-3)

    def test_running_stats_update_only_in_training(self):
        bn = T.BatchNorm(2)
        x = Tensor(np.full((8, 2), 5.0))
        bn(x, training=False)
        np.testing.assert_array_equal(bn.running_mean, np.zeros(2))
        bn(x, training=True)
        np.testing.assert_allclose(bn.running_mean, 0.5, rtol=1e-12)

    @pytest.mark.parametrize("training", [True, False])
    def test_gradients(self, training):
        bn = T.BatchNorm(3)
        bn.running_mean = _rand((3,), 31) * 0.1
        bn.running_var = np.abs(_rand((3,), 32)) + 0.5
        x = Tensor(_rand((6, 3), 33), requires_grad=True)

        def f(ps):
            bn.gamma, bn.beta = ps[1], ps[2]
            return T.square(bn(ps[0], training=training)).sum()

        gamma = Tensor(_rand((3,), 34), requires_grad=True)
        beta = Tensor(_rand((3,), 35), requires_grad=True)
        assert finite_diff_check(f, [x, gamma, beta]) < 1e-4


class TestFiniteDiffCheck:
    def test_quadratic_is_exact_to_rounding(self):
        p = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        err = finite_diff_check(lambda ps: T.square(ps[0]).sum(), [p])
        assert err < 1e-9

    def test_sine_against_cosine(self):
        p = Tensor(_rand((5,), 8), requires_grad=True)
        err = finite_diff_check(lambda ps: sin(ps[0]).sum(), [p])
        assert err < 1e-6
        # cross-check the taped gradient against the analytic cosine
        with GradTape() as tape:
            loss = sin(p).sum()
        (g,) = backward(tape, loss, [p])
        np.testing.assert_allclose(g, np.cos(p.data), rtol=1e-12)


def test_worker_threads_never_record_on_foreign_tapes():
    # read-only scoring on a caller's worker threads must not append to a
    # tape owned by another thread
    import concurrent.futures

    p = Tensor(_rand((4, 4), 50), requires_grad=True)

    def score_rows():
        return (p @ p).sum().item()

    with GradTape() as tape:
        loss = T.square(p).sum()
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda _: score_rows(), range(16)))
    assert len(set(results)) == 1
    assert len(tape) == 2  # square + sum only
    (grad,) = backward(tape, loss, [p])
    np.testing.assert_allclose(grad, 2.0 * p.data, rtol=1e-15)


def test_public_ops_keep_finite_outputs():
    rng = np.random.default_rng(77)
    a = Tensor(rng.normal(size=(3, 4)) * 1e3)
    b = Tensor(rng.normal(size=(4, 3)) * 1e3)
    for out in [a + a, a * 2.0, T.square(a), a @ b, a.sum(), T.abs_pow(a, 3)]:
        assert np.all(np.isfinite(out.data))
