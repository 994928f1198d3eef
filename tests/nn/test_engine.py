"""Execution-engine behaviour: plan cache, weight caches, dtype parity
and deterministic threaded sharding."""

import numpy as np
import pytest

from repro.core import BikeCAP, BikeCAPConfig
from repro.nn import Tensor, Trainer, config, engine, ops
from repro.nn.layers.base import Parameter
from repro.nn.optim import Adam
from repro.obs import metrics as obs_metrics


@pytest.fixture(autouse=True)
def _fresh_engine():
    engine.clear_caches()
    yield
    engine.clear_caches()


def _counter_value(snapshot, name):
    return sum(
        value for key, value in snapshot["counters"].items() if key.startswith(name)
    )


class TestPlanCache:
    def test_hit_after_same_shape_miss_after_shape_change(self, rng):
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((4, 5))
        misses = _counter_value(obs_metrics.snapshot(), "engine_plan_cache_misses_total")
        engine.einsum("nij,jk->nik", a, b)
        hits = _counter_value(obs_metrics.snapshot(), "engine_plan_cache_hits_total")
        engine.einsum("nij,jk->nik", a, b)
        assert (
            _counter_value(obs_metrics.snapshot(), "engine_plan_cache_hits_total")
            == hits + 1
        )
        # A different signature must be planned afresh, not served from cache.
        engine.einsum("nij,jk->nik", rng.standard_normal((3, 3, 4)), b)
        assert (
            _counter_value(obs_metrics.snapshot(), "engine_plan_cache_hits_total")
            == hits + 1
        )
        assert (
            _counter_value(obs_metrics.snapshot(), "engine_plan_cache_misses_total")
            == misses + 2
        )

    def test_dtype_is_part_of_the_signature(self, rng):
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((4, 5))
        engine.einsum("nij,jk->nik", a, b)
        misses = _counter_value(obs_metrics.snapshot(), "engine_plan_cache_misses_total")
        engine.einsum("nij,jk->nik", a.astype(np.float32), b.astype(np.float32))
        assert (
            _counter_value(obs_metrics.snapshot(), "engine_plan_cache_misses_total")
            == misses + 1
        )

    def test_einsum_matches_numpy_and_caches_path(self, rng):
        a = rng.standard_normal((3, 4, 5))
        b = rng.standard_normal((3, 5, 6))
        expected = np.einsum("bij,bjk->bik", a, b)
        assert np.allclose(engine.einsum("bij,bjk->bik", a, b), expected)
        before = _counter_value(obs_metrics.snapshot(), "engine_plan_cache_hits_total")
        assert np.allclose(engine.einsum("bij,bjk->bik", a, b), expected)
        assert (
            _counter_value(obs_metrics.snapshot(), "engine_plan_cache_hits_total")
            == before + 1
        )


class TestWarmup:
    def test_runs_forward_once_per_batch_size(self):
        seen = []

        def forward(x):
            # Warm-up must not build autograd state: it primes plan caches,
            # nothing else.
            assert not config.grad_enabled()
            seen.append((x.shape, x.dtype))
            return x

        before = _counter_value(obs_metrics.snapshot(), "engine_warmup_runs_total")
        calls = engine.warmup(forward, (5, 4, 4, 3), batch_sizes=(1, 6))
        assert calls == 2
        assert [shape for shape, _ in seen] == [(1, 5, 4, 4, 3), (6, 5, 4, 4, 3)]
        assert all(dtype == np.dtype(config.dtype()) for _, dtype in seen)
        after = _counter_value(obs_metrics.snapshot(), "engine_warmup_runs_total")
        assert after == before + 2

    def test_warmed_shapes_hit_the_plan_cache(self):
        """After warming a real model at a batch size, a same-shape request
        adds plan-cache hits, not misses — the whole point of warm-up."""
        model = BikeCAP(BikeCAPConfig(
            grid=(4, 4), history=4, horizon=2, features=3,
            pyramid_size=2, capsule_dim=2, future_capsule_dim=2,
            decoder_hidden=4, seed=0,
        ))
        engine.clear_caches()
        engine.warmup(model.predict, (4, 4, 4, 3), batch_sizes=(2,))
        misses_before = _counter_value(
            obs_metrics.snapshot(), "engine_plan_cache_misses_total"
        )
        model.predict(np.zeros((2, 4, 4, 4, 3), dtype=config.dtype()))
        misses_after = _counter_value(
            obs_metrics.snapshot(), "engine_plan_cache_misses_total"
        )
        assert misses_after == misses_before

    def test_rejects_nonpositive_batch(self):
        with pytest.raises(ValueError, match=">= 1"):
            engine.warmup(lambda x: x, (2, 2), batch_sizes=(0,))


class TestWeightCaches:
    def test_no_stale_kernel_fft_after_optimizer_step(self, rng):
        # Kernel volume 64 >= the FFT threshold: this conv runs (and caches)
        # the frequency-domain kernel on every call.
        w = Parameter(rng.standard_normal((2, 3, 4, 4, 4)))
        x = Tensor(rng.standard_normal((1, 3, 6, 8, 8)))
        out_before = ops.conv3d(x, w).data.copy()
        optimizer = Adam([w], lr=0.5)
        w.grad = np.ones_like(w.data)
        optimizer.step()
        out_after = ops.conv3d(x, w).data
        with engine.no_cache():
            expected = ops.conv3d(x, w).data
        assert np.allclose(out_after, expected, atol=1e-10)
        assert not np.allclose(out_before, out_after)

    def test_no_stale_masked_weight_after_optimizer_step(self, rng):
        w = Parameter(rng.standard_normal((2, 2, 2, 3, 3)))
        mask = (rng.random(w.shape) > 0.5).astype(w.data.dtype)
        x = Tensor(rng.standard_normal((1, 2, 4, 6, 6)))
        ops.conv3d(x, w, weight_mask=mask)  # populate the cache
        optimizer = Adam([w], lr=0.5)
        w.grad = np.ones_like(w.data)
        optimizer.step()
        out_after = ops.conv3d(x, w, weight_mask=mask).data
        with engine.no_cache():
            expected = ops.conv3d(x, w, weight_mask=mask).data
        assert np.allclose(out_after, expected, atol=1e-12)

    def test_load_state_dict_invalidates_caches(self, rng):
        from repro.nn import Conv3D

        layer = Conv3D(2, 2, kernel_size=4)  # volume 64: FFT path
        x = Tensor(rng.standard_normal((1, 2, 6, 8, 8)))
        layer(x)
        state = {
            name: rng.standard_normal(param.shape)
            for name, param in layer.named_parameters()
        }
        layer.load_state_dict(state)
        out = layer(x).data
        with engine.no_cache():
            expected = layer(x).data
        assert np.allclose(out, expected, atol=1e-10)

    def test_no_cache_bypasses_for_inplace_perturbation(self, rng):
        w = Parameter(rng.standard_normal((2, 3, 4, 4, 4)))
        x = Tensor(rng.standard_normal((1, 3, 6, 8, 8)))
        ops.conv3d(x, w)  # populate the cache
        with engine.no_cache():
            w.data[0, 0, 0, 0, 0] += 1.0
            perturbed = ops.conv3d(x, w).data
            w.data[0, 0, 0, 0, 0] -= 1.0
            restored = ops.conv3d(x, w).data
        assert not np.allclose(perturbed, restored)


def _tiny_trainer(seed=0):
    cfg = BikeCAPConfig(
        grid=(6, 6),
        history=4,
        horizon=2,
        features=2,
        pyramid_size=2,
        capsule_dim=2,
        future_capsule_dim=2,
        decoder_hidden=4,
        seed=seed,
    )
    model = BikeCAP(cfg)
    trainer = Trainer(model, loss="l1", batch_size=4, seed=seed)
    rng = np.random.default_rng(seed)
    dtype = config.dtype()
    x = rng.random((8, 4, 6, 6, 2)).astype(dtype)
    y = rng.random((8, 2, 6, 6)).astype(dtype)
    return trainer, x, y


class TestDtypeParity:
    def test_float32_matches_float64_training(self):
        curves = {}
        for dtype in (np.float64, np.float32):
            with config.use_dtype(dtype):
                engine.clear_caches()
                trainer, x, y = _tiny_trainer(seed=3)
                history = trainer.fit(x, y, epochs=3)
                curves[dtype] = np.asarray(history.train_loss)
        assert curves[np.float32].dtype is not None
        assert np.allclose(curves[np.float32], curves[np.float64], rtol=2e-2, atol=1e-3)
        assert int(np.argmin(curves[np.float32])) == int(np.argmin(curves[np.float64]))


def _shard_into(trainer, shards):
    """Make the trainer's model split every batch into ``shards`` pieces."""
    trainer.model.batch_shards = lambda shape: shards


class TestShardedTraining:
    def test_pool_matches_serial_bit_for_bit(self, monkeypatch):
        trainer_a, x, y = _tiny_trainer(seed=5)
        trainer_b, _, _ = _tiny_trainer(seed=5)
        _shard_into(trainer_a, 3)
        _shard_into(trainer_b, 3)
        monkeypatch.setattr(config, "usable_cpus", lambda: 2)
        loss_a = trainer_a._batch_loss(x, y, backward=True)
        monkeypatch.setattr(config, "usable_cpus", lambda: 1)
        loss_b = trainer_b._batch_loss(x, y, backward=True)
        assert loss_a == loss_b
        params_a = trainer_a.optimizer.parameters
        params_b = trainer_b.optimizer.parameters
        assert len(params_a) == len(params_b)
        for param_a, param_b in zip(params_a, params_b):
            if param_a.grad is None:
                assert param_b.grad is None
                continue
            assert np.array_equal(param_a.grad, param_b.grad)

    def test_sharded_loss_close_to_full_batch(self):
        # Summation order is all that differs; rtol 1e-10 is a float64 bound.
        with config.use_dtype(np.float64):
            trainer_a, x, y = _tiny_trainer(seed=7)
            trainer_b, _, _ = _tiny_trainer(seed=7)
            _shard_into(trainer_a, 2)
            loss_sharded = trainer_a._batch_loss(x, y, backward=True)
            prediction = trainer_b.model(Tensor(x))
            loss_full = trainer_b.loss_fn(prediction, Tensor(y))
            loss_full.backward()
        assert np.isclose(loss_sharded, float(loss_full.data), rtol=1e-10)
        for param_a, param_b in zip(
            trainer_a.optimizer.parameters, trainer_b.optimizer.parameters
        ):
            if param_a.grad is None:
                continue
            assert np.allclose(param_a.grad, param_b.grad, rtol=1e-8, atol=1e-10)

    def test_model_hook_controls_train_step_path(self):
        def sharded_steps():
            return _counter_value(obs_metrics.snapshot(), "train_sharded_steps_total")

        # float64: the loss comparison below is to rtol 1e-9.
        with config.use_dtype(np.float64):
            trainer_sharded, x, y = _tiny_trainer(seed=9)
            _shard_into(trainer_sharded, 2)
            before = sharded_steps()
            loss_sharded = trainer_sharded.train_step(x, y)
            assert sharded_steps() == before + 1
            trainer_serial, _, _ = _tiny_trainer(seed=9)
            loss_serial = trainer_serial.train_step(x, y)
        assert sharded_steps() == before + 1
        # Same step, same data: the shard decomposition only reorders
        # float summation.
        assert np.isclose(loss_sharded, loss_serial, rtol=1e-9)

    def test_sharded_validation_matches_full_batch(self):
        trainer_a, x, y = _tiny_trainer(seed=11)
        trainer_b, _, _ = _tiny_trainer(seed=11)
        _shard_into(trainer_a, 2)
        assert np.isclose(trainer_a.evaluate(x, y), trainer_b.evaluate(x, y), rtol=1e-10)
