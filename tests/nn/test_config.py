"""Substrate configuration: dtype switching and the per-thread grad mode."""

import threading

import numpy as np
import pytest

from repro.nn import Tensor, no_grad, ops
from repro.nn import config


@pytest.fixture(autouse=True)
def restore_config():
    previous = config.dtype()
    yield
    config.set_dtype(previous)
    config.set_grad_enabled(True)


class TestDtype:
    def test_default_is_float32(self):
        assert Tensor([1.0]).dtype == np.float32
        assert config.engine_mode() == "fast"

    def test_engine_mode_labels_the_dtype(self):
        with config.use_dtype(np.float64):
            assert config.engine_mode() == "precise"
        assert config.engine_mode() == "fast"

    def test_switch_to_float32(self):
        config.set_dtype(np.float32)
        assert Tensor([1.0]).dtype == np.float32

    def test_rejects_other_dtypes(self):
        with pytest.raises(ValueError):
            config.set_dtype(np.int32)

    def test_float32_training_step_works(self):
        config.set_dtype(np.float32)
        from repro.nn import Linear, Trainer

        rng = np.random.default_rng(0)
        x = rng.standard_normal((32, 3)).astype(np.float32)
        y = (x @ np.array([[1.0], [2.0], [3.0]], dtype=np.float32))
        model = Linear(3, 1, rng=0)
        trainer = Trainer(model, loss="mse", lr=0.05, seed=0)
        history = trainer.fit(x, y, epochs=20)
        assert history.train_loss[-1] < history.train_loss[0]
        assert model.weight.data.dtype == np.float32


class TestGradMode:
    def test_no_grad_nests(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            with no_grad():
                pass
            # Inner exit must not re-enable grads prematurely.
            y = x * 2
        assert not y.requires_grad
        assert (x * 2).requires_grad

    def test_no_grad_restores_on_exception(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert (x * 2).requires_grad

    def test_ops_cheaper_without_grad(self):
        x = Tensor(np.ones((4, 4)), requires_grad=True)
        with no_grad():
            y = ops.mul(x, 2.0)
        assert y._backward is None
        assert y._parents == ()


class TestGradModeThreads:
    def test_interleaved_no_grad_in_threads_leaves_caller_on(self):
        # The losing order for a process-wide flag: A enters, B enters
        # (saving A's "off"), A leaves, B leaves and restores "off".
        a_entered, b_entered, a_left = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def first():
            with no_grad():
                a_entered.set()
                b_entered.wait(5)
            a_left.set()

        def second():
            a_entered.wait(5)
            with no_grad():
                b_entered.set()
                a_left.wait(5)
                seen["inside"] = config.grad_enabled()

        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert seen["inside"] is False
        assert config.grad_enabled()

        from repro.nn import Linear, Trainer

        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 3))
        trainer = Trainer(Linear(3, 1, rng=0), loss="mse", seed=0)
        assert np.isfinite(trainer.train_step(x, x.sum(axis=1, keepdims=True)))

    def test_each_thread_starts_with_grad_on(self):
        seen = []
        with no_grad():
            thread = threading.Thread(target=lambda: seen.append(config.grad_enabled()))
            thread.start()
            thread.join(timeout=10)
            assert not config.grad_enabled()
        assert not thread.is_alive()
        assert seen == [True]
