"""Chaos test: a crash inside a sharded train step must not leak shard work.

A model whose ``batch_shards`` hook asks for two shards runs shard 0 on the
calling thread and shard 1 on the engine's pool thread. When one shard
raises (fault injection, divergence, OOM), the rollback-and-retry machinery
in :mod:`repro.resilience` will call ``train_step`` again — if the failed
step's other shard were still running against the rolled-back model, every
retry would race it. ``engine.run_shards`` cancels or waits out a failed
step's sibling shards before the error propagates, and the pool stays one
thread however often steps fail; these tests hammer that contract.
"""

import threading
import time

import numpy as np
import pytest

from repro import faults
from repro.nn import Linear, Sequential, Trainer
from repro.nn import config as nn_config
from repro.nn import engine
from repro.nn.layers.base import Module


def _engine_threads():
    """Live threads belonging to the engine's shard pool."""
    return [
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("repro-engine")
    ]


class _Sabotage(Module):
    """Identity layer: on demand, shard 0 crashes while shard 1 is running."""

    def __init__(self):
        super().__init__()
        self.crash = False
        self.started = threading.Event()
        self.finished = []  # shards whose sabotaged forward ran to the end

    def forward(self, x):
        if not self.crash:
            return x
        shard = engine.shard_index()
        if shard == 0:
            self.started.wait(timeout=5.0)
            self.started.clear()
            raise faults.SimulatedCrash("shard sabotage")
        self.started.set()
        time.sleep(0.05)  # still running when shard 0 has already failed
        self.finished.append(shard)
        return x


@pytest.fixture()
def sharded_threads(monkeypatch):
    """Run with two usable CPUs, so shard 1 goes to the pool; drain it afterwards."""
    monkeypatch.setattr(nn_config, "usable_cpus", lambda: 2)
    yield
    engine.reset_executor(wait=True)


def _make_trainer():
    sabotage = _Sabotage()
    model = Sequential(Linear(6, 8), sabotage, Linear(8, 2))
    model.batch_shards = lambda shape: 2
    trainer = Trainer(model, loss="mse", lr=0.01, seed=0)
    rng = np.random.default_rng(0)
    x = rng.random((16, 6)).astype(nn_config.dtype())
    y = rng.random((16, 2)).astype(nn_config.dtype())
    return trainer, sabotage, x, y


def test_crashing_shard_drains_pool_across_retries(sharded_threads):
    """Repeated failing steps never leave shard work running or add threads."""
    engine.reset_executor(wait=True)
    assert _engine_threads() == []
    trainer, sabotage, x, y = _make_trainer()

    # A healthy sharded step brings the one pool thread up.
    loss = trainer.train_step(x, y)
    assert np.isfinite(loss)
    assert len(_engine_threads()) == 1

    sabotage.crash = True
    for attempt in range(1, 6):  # rollback-and-retry shape: fail, retry, fail, ...
        with pytest.raises(faults.SimulatedCrash):
            trainer.train_step(x, y)
        # The wait is synchronous: by the time the exception reaches the
        # caller, the failed step's other shard has finished.
        assert sabotage.finished == [1] * attempt
        assert len(_engine_threads()) == 1

    # Recovery after the fault clears: the same pool, and a finite step.
    sabotage.crash = False
    loss = trainer.train_step(x, y)
    assert np.isfinite(loss)
    assert len(_engine_threads()) == 1


def test_crash_then_serial_step_is_unaffected(sharded_threads, monkeypatch):
    """After a failed pooled step, one usable CPU runs both shards in place."""
    trainer, sabotage, x, y = _make_trainer()
    sabotage.crash = True
    with pytest.raises(faults.SimulatedCrash):
        trainer.train_step(x, y)
    sabotage.crash = False
    engine.reset_executor(wait=True)
    monkeypatch.setattr(nn_config, "usable_cpus", lambda: 1)
    loss = trainer.train_step(x, y)
    assert np.isfinite(loss)
    assert _engine_threads() == []
