"""Trainer: mini-batching, fitting, early stopping, prediction."""

import numpy as np
import pytest

from repro.nn import Linear, Sequential, Activation, Tensor, Trainer, iterate_minibatches
from repro.nn.serialization import load_weights, save_weights


class TestMinibatches:
    def test_covers_all_samples(self):
        x = np.arange(10.0).reshape(10, 1)
        y = x * 2
        seen = []
        for bx, _by in iterate_minibatches(x, y, batch_size=3):
            seen.extend(bx.ravel().tolist())
        assert sorted(seen) == x.ravel().tolist()

    def test_shuffles_with_rng(self):
        x = np.arange(32.0).reshape(32, 1)
        rng = np.random.default_rng(0)
        first_batch = next(iter(iterate_minibatches(x, x, 8, rng=rng)))[0]
        assert not np.array_equal(first_batch.ravel(), np.arange(8.0))

    def test_pairs_stay_aligned_after_shuffle(self):
        x = np.arange(20.0).reshape(20, 1)
        y = x * 3
        rng = np.random.default_rng(1)
        for bx, by in iterate_minibatches(x, y, 4, rng=rng):
            assert np.allclose(by, bx * 3)


class TestTrainer:
    def _linear_data(self, rng, n=200):
        x = rng.standard_normal((n, 3))
        w = np.array([[1.0], [-2.0], [0.5]])
        y = x @ w + 0.3
        return x, y

    def test_fit_reduces_loss(self, rng):
        x, y = self._linear_data(rng)
        model = Linear(3, 1, rng=0)
        trainer = Trainer(model, loss="mse", lr=0.05, batch_size=32, seed=0)
        history = trainer.fit(x, y, epochs=30)
        assert history.train_loss[-1] < history.train_loss[0] * 0.01

    def test_fit_records_validation(self, rng):
        x, y = self._linear_data(rng)
        model = Linear(3, 1, rng=0)
        trainer = Trainer(model, loss="mse", lr=0.05, seed=0)
        history = trainer.fit(x[:150], y[:150], epochs=5, val_x=x[150:], val_y=y[150:])
        assert len(history.val_loss) == 5
        assert np.isfinite(history.best_val_loss)

    def test_early_stopping_restores_best_weights(self, rng):
        x, y = self._linear_data(rng, n=64)
        model = Sequential(Linear(3, 8, rng=0), Activation("tanh"), Linear(8, 1, rng=1))
        trainer = Trainer(model, loss="mse", lr=0.5, batch_size=8, seed=0)  # big lr → bouncy
        history = trainer.fit(x[:48], y[:48], epochs=60, val_x=x[48:], val_y=y[48:], patience=3)
        assert len(history.val_loss) < 60  # stopped early
        final_val = trainer.evaluate(x[48:], y[48:])
        assert final_val <= min(history.val_loss) + 1e-6

    def test_predict_matches_forward(self, rng):
        x, _ = self._linear_data(rng, n=10)
        model = Linear(3, 1, rng=0)
        trainer = Trainer(model, seed=0)
        predictions = trainer.predict(x, batch_size=4)
        expected = model(Tensor(x)).data
        assert np.allclose(predictions, expected)

    def test_history_as_dict(self, rng):
        x, y = self._linear_data(rng, n=32)
        trainer = Trainer(Linear(3, 1, rng=0), seed=0)
        history = trainer.fit(x, y, epochs=2)
        payload = history.as_dict()
        assert set(payload) == {
            "train_loss",
            "val_loss",
            "epoch_seconds",
            "best_epoch",
            "total_seconds",
        }
        assert len(payload["train_loss"]) == 2
        assert payload["best_epoch"] == history.best_epoch
        assert payload["total_seconds"] == pytest.approx(sum(payload["epoch_seconds"]))

    def test_history_best_epoch_and_total_seconds(self, rng):
        x, y = self._linear_data(rng)
        model = Linear(3, 1, rng=0)
        trainer = Trainer(model, loss="mse", lr=0.05, seed=0)
        history = trainer.fit(x[:150], y[:150], epochs=4, val_x=x[150:], val_y=y[150:])
        assert history.best_epoch == int(np.argmin(history.val_loss)) + 1
        assert history.total_seconds == pytest.approx(sum(history.epoch_seconds))
        empty = history.__class__()
        assert empty.best_epoch is None
        assert empty.total_seconds == 0.0


class TestSerialization:
    def test_save_load_roundtrip(self, tmp_path, rng):
        src = Linear(4, 2, rng=0)
        dst = Linear(4, 2, rng=1)
        path = str(tmp_path / "weights.npz")
        save_weights(src, path)
        load_weights(dst, path)
        x = rng.standard_normal((3, 4))
        assert np.allclose(src(Tensor(x)).data, dst(Tensor(x)).data)

    def test_load_rejects_wrong_architecture(self, tmp_path):
        src = Linear(4, 2, rng=0)
        path = str(tmp_path / "weights.npz")
        save_weights(src, path)
        with pytest.raises((KeyError, ValueError)):
            load_weights(Linear(3, 2, rng=0), path)
