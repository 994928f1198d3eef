"""The multiprocess sweep executor: identical results, isolated crashes."""

import threading

import numpy as np
import pytest

from repro.nn import Linear, Trainer
from repro.nn import config as nn_config
from repro.pipeline import parallel
from repro.pipeline.spec import RunSpec


def _specs(seeds):
    return [
        RunSpec(
            model="BikeCAP",
            history=6,
            horizon=2,
            epochs=1,
            seed=seed,
            hparams={
                "pyramid_size": 2,
                "capsule_dim": 2,
                "future_capsule_dim": 2,
                "decoder_hidden": 4,
            },
        )
        for seed in seeds
    ]


class TestEngineSnapshot:
    def test_roundtrip(self):
        snapshot = parallel.engine_snapshot()
        assert snapshot == {
            "dtype": np.dtype(nn_config.dtype()).str,
            "plan_cache": nn_config.plan_cache_enabled(),
        }
        # Applying the snapshot of the current state is a no-op.
        parallel.apply_engine_snapshot(snapshot)
        assert parallel.engine_snapshot() == snapshot


class TestRunSpecs:
    def test_parallel_identical_to_serial(self, tiny_dataset):
        specs = _specs([0, 1])
        serial = parallel.run_specs(specs, tiny_dataset, jobs=1)
        if not parallel.fork_available():
            pytest.skip("platform has no fork start method")
        fanned = parallel.run_specs(specs, tiny_dataset, jobs=2)
        assert len(serial) == len(fanned) == 2
        for serial_metrics, fanned_metrics in zip(serial, fanned):
            assert serial_metrics == fanned_metrics

    def test_parallel_after_a_pooled_step_matches_serial(self, tiny_dataset, monkeypatch):
        """Forking while the engine's shard thread is alive stays correct."""
        if not parallel.fork_available():
            pytest.skip("platform has no fork start method")
        monkeypatch.setattr(nn_config, "usable_cpus", lambda: 2)
        trainer = Trainer(Linear(3, 1, rng=0), loss="mse", seed=0)
        trainer.model.batch_shards = lambda shape: 2
        trainer.train_step(np.ones((4, 3)), np.ones((4, 1)))
        assert any(t.name.startswith("repro-engine") for t in threading.enumerate())
        specs = _specs([0, 1])
        fanned = parallel.run_specs(specs, tiny_dataset, jobs=2)
        assert fanned == parallel.run_specs(specs, tiny_dataset, jobs=1)

    def test_single_spec_never_pools(self, tiny_dataset):
        specs = _specs([0])
        results = parallel.run_specs(specs, tiny_dataset, jobs=8)
        assert len(results) == 1
        assert set(results[0]) == {"MAE", "RMSE"}

    def test_crashed_worker_retried_serially(self, tiny_dataset, monkeypatch):
        """A worker failure degrades to an in-parent serial run, not a loss."""
        if not parallel.fork_available():
            pytest.skip("platform has no fork start method")
        specs = _specs([0, 1])
        reference = parallel.run_specs(specs, tiny_dataset, jobs=1)
        monkeypatch.setattr(parallel, "_run_one", _always_crash)
        degraded = parallel.run_specs(specs, tiny_dataset, jobs=2)
        assert degraded == reference


def _always_crash(job):
    index, _ = job
    return index, None, "SimulatedCrash: chaos-monkey worker"
