"""Adam update rule and the learning-rate schedule."""

import math
import tracemalloc

import numpy as np
import pytest
from conftest import random_store

from meim.errors import ConfigError, ShapeError
from meim.model import ModelConfig, entity_minor
from meim.optim import _CHUNK, Adam
from meim.tensor import Tensor
from meim.trainer import RunConfig, train


def logged_lrs(base_lr, lr_decay, epochs, eval_every=1):
    """The lr of each event in the metrics log of a tiny training run."""
    store = random_store(6, 2, n_train=8, seed=0)
    model = ModelConfig(6, 2, k=1, ce=2, cr=2, sampling="1vsall")
    config = RunConfig(model, base_lr=base_lr, lr_decay=lr_decay, batch_size=8, epochs=epochs,
                       eval_every=eval_every, eval_split="train")
    return [event["lr"] for event in train(config, store=store).metrics_log]


class TestAdamStep:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = Tensor([1.0, -2.0], requires_grad=True)
        Adam().step([("p", p)], [np.zeros(2)], lr=0.1)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_magnitude_is_learning_rate(self):
        p = Tensor([1.0], requires_grad=True)
        Adam().step([("p", p)], [np.array([0.5])], lr=0.1)
        # bias-corrected first step moves by ~lr regardless of gradient scale
        assert p.data[0] == pytest.approx(0.9, abs=1e-7)

    def test_hand_computed_first_step(self):
        opt = Adam()
        p = Tensor([1.0], requires_grad=True)
        g = 0.5
        opt.step([("p", p)], [np.array([g])], lr=0.1)
        m_hat = ((1 - 0.9) * g) / (1 - 0.9)
        v_hat = ((1 - 0.999) * g * g) / (1 - 0.999)
        expected = 1.0 - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert p.data[0] == pytest.approx(expected, rel=1e-14)

    def test_equal_gradients_update_identically(self):
        a = Tensor([2.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        opt = Adam()
        for _ in range(5):
            opt.step([("a", a), ("b", b)], [np.array([0.3]), np.array([0.3])], lr=0.05)
        assert a.data[0] == b.data[0]

    def test_per_parameter_independence(self):
        # updating x alone equals updating x inside a larger parameter set
        x1 = Tensor([1.0], requires_grad=True)
        opt1 = Adam()
        x2 = Tensor([1.0], requires_grad=True)
        y2 = Tensor([5.0], requires_grad=True)
        opt2 = Adam()
        for step in range(4):
            g = np.array([0.1 * (step + 1)])
            opt1.step([("x", x1)], [g.copy()], lr=0.01)
            opt2.step([("x", x2), ("y", y2)], [g.copy(), np.array([1.0])], lr=0.01)
        assert x1.data[0] == x2.data[0]

    def test_quadratic_convergence(self):
        x = Tensor([5.0], requires_grad=True)
        opt = Adam()
        for _ in range(2000):
            opt.step([("x", x)], [2.0 * x.data], lr=0.05)
        assert abs(x.data[0]) < 1e-2

    def test_deterministic_trajectory(self):
        def run():
            x = Tensor([1.5], requires_grad=True)
            opt = Adam()
            history = []
            for i in range(50):
                opt.step([("x", x)], [np.cos(x.data) + i], lr=0.01)
                history.append(float(x.data[0]))
            return history

        assert run() == run()

    def test_bitwise_equal_to_textbook_update(self):
        rng = np.random.default_rng(3)
        shapes = {"a": (7, 3, 5), "b": (4, 4), "c": (40000,), "d": (6, 5), "e": (3000, 3, 4)}
        assert math.prod(shapes["e"]) > _CHUNK  # nditer must split it, with nothing to buffer

        def minor(values):  # the layout of a training run's entity table and its gradient
            out = entity_minor(values.shape)
            out[...] = values
            return out

        params = {name: Tensor(rng.normal(size=s), requires_grad=True) for name, s in shapes.items()}
        params["d"] = Tensor(rng.normal(size=(5, 6)).T, requires_grad=True)  # not C-contiguous
        params["e"] = Tensor(minor(params["e"].data), requires_grad=True)
        ref = {name: p.data.copy() for name, p in params.items()}
        m = {name: np.zeros(s) for name, s in shapes.items()}
        v = {name: np.zeros(s) for name, s in shapes.items()}
        b1, b2, eps = 0.9, 0.999, 1e-8
        opt = Adam()
        for t in range(1, 7):
            lr = 3e-3 * 0.99**t
            grads = {name: rng.normal(scale=10.0**-t, size=s) for name, s in shapes.items()}
            grads["e"] = minor(grads["e"])
            opt.step(list(params.items()), list(grads.values()), lr)
            assert opt.m["e"].strides == opt.v["e"].strides == params["e"].data.strides
            for name, g in grads.items():
                m[name] = m[name] + (1.0 - b1) * (g - m[name])
                v[name] = v[name] + (1.0 - b2) * (g * g - v[name])
                m_hat = m[name] / (1.0 - b1**t)
                v_hat = v[name] / (1.0 - b2**t)
                ref[name] = ref[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
                assert np.array_equal(params[name].data, ref[name])
                assert np.array_equal(opt.m[name], m[name])
                assert np.array_equal(opt.v[name], v[name])

    def test_transposed_view_gradient_is_bitwise_equal_to_textbook_update(self):
        # the entity gradient reaches Adam as a view of the fused loss's (D, E)
        # buffer, shaped (E, K, C) with strides (8, 8 * C * E, 8 * E)
        rng = np.random.default_rng(4)
        e, k, c = 50, 3, 4
        p = Tensor(rng.normal(size=(e, k, c)), requires_grad=True)
        ref, m, v = p.data.copy(), np.zeros((e, k, c)), np.zeros((e, k, c))
        opt = Adam()
        for t in range(1, 5):
            g = rng.normal(scale=10.0**-t, size=(k * c, e)).T.reshape(e, k, c)
            assert g.strides == (8, 8 * c * e, 8 * e)
            opt.step([("p", p)], [g], 1e-2)
            m = m + (1.0 - 0.9) * (g - m)
            v = v + (1.0 - 0.999) * (g * g - v)
            ref = ref - 1e-2 * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
            assert np.array_equal(p.data, ref)
            assert np.array_equal(opt.m["p"], m) and np.array_equal(opt.v["p"], v)

    def test_moments_are_allocated_once(self):
        p = Tensor(np.zeros((1000, 1000)), requires_grad=True)
        g = np.full(p.shape, 0.5)
        opt = Adam()
        opt.step([("p", p)], [g], lr=0.1)
        tracemalloc.start()
        try:
            opt.step([("p", p)], [g], lr=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < p.data.nbytes / 4  # the two chunk buffers, no parameter-sized array

    def test_shape_mismatch_rejected(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            Adam().step([("p", p)], [np.zeros(3)], lr=0.1)

    def test_nonpositive_lr_rejected(self):
        with pytest.raises(ConfigError):
            Adam().step([], [], lr=0.0)


class TestLrSchedule:
    def test_epoch_zero_is_base(self):
        assert logged_lrs(3e-3, 0.995, epochs=1) == [3e-3]

    def test_no_decay_is_constant(self):
        assert logged_lrs(1e-2, 1.0, epochs=501, eval_every=501) == [1e-2]  # epoch 500

    def test_two_epochs_of_decay(self):
        assert logged_lrs(3e-3, 0.995, epochs=3)[2] == pytest.approx(2.970075e-3, rel=1e-9)

    def test_validation(self):
        model = ModelConfig(6, 2, k=1, ce=2, cr=2)
        with pytest.raises(ConfigError, match="base_lr"):
            RunConfig(model, base_lr=0.0, lr_decay=0.9)
        with pytest.raises(ConfigError, match="lr_decay"):
            RunConfig(model, base_lr=1e-3, lr_decay=0.0)
