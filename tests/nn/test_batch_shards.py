"""Two-shard training steps and validation batches, and the one thread budget.

BikeCAP splits a big enough batch into two half-batch shards; every other
model keeps the plain serial step. The shards' gradients merge in shard
order, so seeded results must not depend on how many CPUs the host lets
the process use.
"""

import ctypes
import logging
import os
import sys
import threading

import numpy as np
import pytest

from repro.baselines.lstm_model import LSTMForecaster
from repro.baselines.predrnn import PredRNNForecaster
from repro.core import BikeCAP, BikeCAPConfig
from repro.nn import Linear, Sequential, Tensor, Trainer, clip_grad_norm, config, engine
from repro.nn.layers.base import Module
from repro.obs import metrics as obs_metrics


def _sharded_steps() -> float:
    counters = obs_metrics.snapshot()["counters"]
    return sum(v for k, v in counters.items() if k.startswith("train_sharded_steps_total"))


class TestBikeCAPHook:
    @pytest.mark.parametrize(
        "shape, shards",
        [
            ((32, 8, 16, 12, 4), 2),  # paper geometry: 98,304 elements per half
            ((32, 8, 8, 8, 4), 2),  # default geometry: 32,768 per half
            ((20, 8, 16, 12, 4), 2),  # a paper-geometry last partial batch
            ((32, 6, 6, 6, 4), 1),  # smoke city: 13,824 per half
            ((32, 8, 4, 4, 4), 1),  # a 4×4 serving region: 8,192 per half
            ((1, 8, 16, 12, 4), 1),  # one sample cannot split
        ],
    )
    def test_shards_follow_the_input_size(self, shape, shards):
        model = BikeCAP(BikeCAPConfig(grid=shape[2:4], history=shape[1], seed=0))
        assert model.batch_shards(shape) == shards


def _fit_bikecap(monkeypatch, cpus: int):
    monkeypatch.setattr(config, "usable_cpus", lambda: cpus)
    cfg = BikeCAPConfig(
        grid=(8, 8), history=8, horizon=2, features=4, pyramid_size=2,
        capsule_dim=2, future_capsule_dim=2, decoder_hidden=2, seed=0,
    )
    model = BikeCAP(cfg)
    trainer = Trainer(model, loss="mse", batch_size=32, seed=0)
    rng = np.random.default_rng(0)
    x = rng.random((104, 8, 8, 8, 4)).astype(config.dtype())
    y = rng.random((104, 2, 8, 8)).astype(config.dtype())
    before = _sharded_steps()
    history = trainer.fit(x[:64], y[:64], epochs=2, val_x=x[64:], val_y=y[64:])
    assert _sharded_steps() == before + 4  # every step of both epochs split
    return model, history


class TestHostIndependence:
    def test_fit_is_identical_with_the_pool_and_on_one_cpu(self, monkeypatch):
        # Switch threads often, so the two shards interleave finely while
        # they share the weight caches and the model.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pooled_model, pooled = _fit_bikecap(monkeypatch, cpus=2)
        finally:
            sys.setswitchinterval(interval)
        serial_model, serial = _fit_bikecap(monkeypatch, cpus=1)
        assert pooled.train_loss == serial.train_loss
        assert pooled.val_loss == serial.val_loss
        for a, b in zip(pooled_model.parameters(), serial_model.parameters()):
            assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_only_shard_zero_keeps_the_routing_coupling(self, monkeypatch, cpus):
        # On one CPU shard 1 runs last, so it would overwrite shard 0's value.
        monkeypatch.setattr(config, "usable_cpus", lambda: cpus)
        model = BikeCAP(BikeCAPConfig(grid=(8, 8), history=8, horizon=2, pyramid_size=2,
                                      capsule_dim=2, future_capsule_dim=2,
                                      decoder_hidden=2, seed=0))
        trainer = Trainer(model, loss="mse", seed=0)
        rng = np.random.default_rng(1)
        trainer.train_step(rng.random((33, 8, 8, 8, 4)), rng.random((33, 2, 8, 8)))
        assert model.coupling_coefficients.shape[0] == 17


def _lstm():
    forecaster = LSTMForecaster(6, 2, (4, 4), 4, hidden_size=8, seed=0)
    rng = np.random.default_rng(0)
    return forecaster, rng.random((64, 6, 4)), rng.random((64, 4))


def _predrnn():
    forecaster = PredRNNForecaster(6, 2, (4, 4), 4, hidden_channels=4, seed=0)
    rng = np.random.default_rng(0)
    return forecaster, rng.random((8, 6, 4, 4, 4)), rng.random((8, 6, 4, 4, 4))


@pytest.mark.parametrize("build", [_lstm, _predrnn], ids=["LSTM", "PredRNN"])
def test_one_shard_models_take_the_plain_step(monkeypatch, build):
    monkeypatch.setattr(config, "usable_cpus", lambda: 2)
    forecaster, x, y = build()
    reference, _, _ = build()
    assert forecaster.model.batch_shards(x.shape) == 1
    before = _sharded_steps()
    loss = forecaster.trainer.train_step(x, y)
    assert _sharded_steps() == before

    trainer = reference.trainer
    trainer.optimizer.zero_grad()
    expected = trainer.loss_fn(reference.model(Tensor(x)), Tensor(y))
    expected.backward()
    clip_grad_norm(trainer.optimizer.parameters, trainer.max_grad_norm)
    trainer.optimizer.step()

    assert loss == float(expected.data)
    for a, b in zip(forecaster.model.parameters(), reference.model.parameters()):
        assert np.array_equal(a.data, b.data)


def _openblas_function(path: str, stem: str, argtypes, restype):
    library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
    for prefix in ("", "scipy_"):
        for suffix in ("", "64_", "_64"):
            function = getattr(library, f"{prefix}openblas_{stem}{suffix}", None)
            if function is not None:
                function.argtypes, function.restype = argtypes, restype
                return function
    raise AssertionError(f"no openblas_{stem} in {path}")


@pytest.fixture()
def openblas():
    """``(get, set)`` for numpy's OpenBLAS thread count; one thread afterwards."""
    paths = engine._loaded_openblas()
    if not paths:
        pytest.skip("numpy is not linked against a loaded OpenBLAS here")
    get = _openblas_function(paths[0], "get_num_threads", [], ctypes.c_int)
    set_ = _openblas_function(paths[0], "set_num_threads", [ctypes.c_int], None)
    yield get, set_
    set_(1)


class TestBlasPin:
    def test_pins_openblas_to_one_thread(self, openblas):
        get, set_ = openblas
        set_(2)
        assert engine.pin_blas_threads() >= 1
        assert get() == 1

    def test_no_library_found_changes_nothing_and_logs(
        self, openblas, monkeypatch, caplog
    ):
        get, set_ = openblas
        set_(2)
        before = get()
        monkeypatch.setattr(engine, "_loaded_openblas", lambda: [])
        with caplog.at_level(logging.INFO, logger=engine.__name__):
            assert engine.pin_blas_threads() == 0
        assert get() == before
        assert "no OpenBLAS library found" in caplog.text


class _Probe(Module):
    """Identity layer noting the shard, autograd flag and thread of each call."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def forward(self, x):
        on_pool = threading.current_thread().name.startswith("repro-engine")
        self.seen.append((engine.shard_index(), config.grad_enabled(), on_pool))
        return x


def test_pool_shard_runs_in_the_callers_state(monkeypatch):
    monkeypatch.setattr(config, "usable_cpus", lambda: 2)
    probe = _Probe()
    trainer = Trainer(Sequential(Linear(3, 2, rng=0), probe), loss="mse", seed=0)
    trainer.model.batch_shards = lambda shape: 2
    x, y = np.ones((6, 3)), np.ones((6, 2))
    trainer.train_step(x, y)
    assert sorted(probe.seen) == [(0, True, False), (1, True, True)]
    probe.seen.clear()
    trainer.evaluate(x, y)
    assert sorted(probe.seen) == [(0, False, False), (1, False, True)]
    assert engine.shard_index() == 0 and config.grad_enabled()
