"""Substrate micro-benchmarks: the hot kernels every experiment relies on.

Unlike the artifact benches these run multiple rounds — they are ordinary
performance benchmarks for the numpy deep-learning substrate.

Each kernel's timings are mirrored into the ``repro.obs`` metrics registry,
and the module writes a ``results/BENCH_substrate.json`` snapshot on exit
(override the directory with ``REPRO_BENCH_DIR``) — the start of the
perf-trajectory file series tracked across PRs.
"""

import os

import numpy as np
import pytest

from repro.core import BikeCAP, BikeCAPConfig, SpatialTemporalRouting, squash
from repro.nn import Tensor, ops
from repro.nn.ops.conv import conv3d_forward, conv3d_input_grad, conv3d_weight_grad
from repro.obs import metrics as obs_metrics
from repro.obs.artifacts import atomic_write_json


def _record(benchmark, kernel: str) -> None:
    """Mirror a pytest-benchmark result into the metrics registry."""
    stats = getattr(benchmark, "stats", None)
    stats = getattr(stats, "stats", None)
    if stats is None:  # --benchmark-disable runs have no stats
        return
    obs_metrics.gauge("bench_substrate_mean_seconds", kernel=kernel).set(stats.mean)
    obs_metrics.gauge("bench_substrate_min_seconds", kernel=kernel).set(stats.min)
    obs_metrics.counter("bench_substrate_rounds_total", kernel=kernel).inc(stats.rounds)


@pytest.fixture(scope="module", autouse=True)
def _bench_snapshot():
    """After the module runs, persist the registry as BENCH_substrate.json."""
    yield
    snapshot = obs_metrics.snapshot()
    if not any("bench_substrate" in key for key in snapshot["gauges"]):
        return
    directory = os.environ.get("REPRO_BENCH_DIR", "results")
    os.makedirs(directory, exist_ok=True)
    atomic_write_json(os.path.join(directory, "BENCH_substrate.json"), snapshot, sort_keys=True)


@pytest.fixture(scope="module")
def arrays():
    rng = np.random.default_rng(0)
    return {
        "x3d": rng.standard_normal((8, 4, 8, 12, 12)),
        "w3d": rng.standard_normal((8, 4, 3, 3, 3)),
        "phi": Tensor(rng.standard_normal((4, 1, 4, 8, 10, 10))),
        "capsules": Tensor(rng.standard_normal((16, 8, 4, 10, 10))),
    }


def test_conv3d_forward_kernel(benchmark, arrays):
    pads = ((1, 1), (1, 1), (1, 1))
    out = benchmark(conv3d_forward, arrays["x3d"], arrays["w3d"], (1, 1, 1), pads)
    _record(benchmark, "conv3d_forward")
    assert out.shape == (8, 8, 8, 12, 12)


def test_conv3d_forward_backward(benchmark, arrays):
    def step():
        x = Tensor(arrays["x3d"], requires_grad=True)
        w = Tensor(arrays["w3d"], requires_grad=True)
        out = ops.conv3d(x, w, padding=1)
        out.sum().backward()
        return x.grad

    grad = benchmark(step)
    _record(benchmark, "conv3d_forward_backward")
    assert grad.shape == arrays["x3d"].shape


def test_squash_kernel(benchmark, arrays):
    out = benchmark(lambda: squash(arrays["capsules"], axis=2))
    _record(benchmark, "squash")
    assert out.shape == arrays["capsules"].shape


def test_spatial_temporal_routing(benchmark, arrays):
    routing = SpatialTemporalRouting(4, 4, horizon=4, iterations=3, rng=0)
    out = benchmark(lambda: routing(arrays["phi"]))
    _record(benchmark, "spatial_temporal_routing")
    assert out.shape == (4, 4, 4, 10, 10)


def test_bikecap_forward(benchmark):
    rng = np.random.default_rng(0)
    config = BikeCAPConfig(
        grid=(10, 10), history=8, horizon=4, features=4, pyramid_size=3, seed=0
    )
    model = BikeCAP(config)
    x = rng.random((8, 8, 10, 10, 4))
    out = benchmark(lambda: model.predict(x))
    _record(benchmark, "bikecap_forward")
    assert out.shape == (8, 4, 10, 10)


def test_conv3d_weight_grad_kernel(benchmark, arrays):
    pads = ((1, 1), (1, 1), (1, 1))
    gout = np.ones((8, 8, 8, 12, 12))
    out = benchmark(
        conv3d_weight_grad, arrays["x3d"], gout, (3, 3, 3), (1, 1, 1), pads
    )
    _record(benchmark, "conv3d_weight_grad")
    assert out.shape == arrays["w3d"].shape


def test_conv3d_input_grad_kernel(benchmark, arrays):
    pads = ((1, 1), (1, 1), (1, 1))
    gout = np.ones((8, 8, 8, 12, 12))
    out = benchmark(
        conv3d_input_grad, gout, arrays["w3d"], (8, 12, 12), (1, 1, 1), pads
    )
    _record(benchmark, "conv3d_input_grad")
    assert out.shape == arrays["x3d"].shape


def test_pyramid_fft_conv_forward_weight_grad(benchmark):
    """One paper-geometry training shard of the pyramid conv (batch 16,
    4→4 channels, 5×9×9 kernel, float32): the FFT forward and the weight
    gradient that reuses its input FFT."""
    rng = np.random.default_rng(1)
    x = rng.standard_normal((16, 4, 8, 16, 12)).astype(np.float32)
    w = rng.standard_normal((4, 4, 5, 9, 9)).astype(np.float32)
    pads = ((4, 0), (4, 4), (4, 4))
    gout = rng.standard_normal((16, 4, 8, 16, 12)).astype(np.float32)

    def step():
        capture = {}
        conv3d_forward(x, w, (1, 1, 1), pads, _capture=capture)
        return conv3d_weight_grad(x, gout, (5, 9, 9), (1, 1, 1), pads, _captured=capture)

    grad = benchmark(step)
    _record(benchmark, "pyramid_fft_conv_forward_weight_grad")
    assert grad.shape == w.shape


def test_adam_step(benchmark):
    from repro.nn.layers.base import Parameter
    from repro.nn.optim import Adam

    rng = np.random.default_rng(2)
    params = [Parameter(rng.standard_normal(shape)) for shape in
              [(64, 32, 3, 3), (32, 16, 3, 3, 3), (128, 128), (128,)]]
    optimizer = Adam(params, lr=1e-3)

    def step():
        for param in params:
            param.grad = param.data * 0.01
        optimizer.step()
        return params[0].data

    out = benchmark(step)
    _record(benchmark, "adam_step")
    assert np.all(np.isfinite(out))


def test_bikecap_train_step(benchmark):
    from repro.nn import Trainer

    rng = np.random.default_rng(0)
    config = BikeCAPConfig(
        grid=(8, 8), history=6, horizon=3, features=4, pyramid_size=3,
        capsule_dim=2, future_capsule_dim=2, decoder_hidden=4, seed=0,
    )
    model = BikeCAP(config)
    trainer = Trainer(model, loss="l1", batch_size=8, seed=0)
    x = rng.random((8, 6, 8, 8, 4))
    y = rng.random((8, 3, 8, 8))
    loss = benchmark(lambda: trainer.train_step(x, y))
    _record(benchmark, "bikecap_train_step")
    assert np.isfinite(loss)
