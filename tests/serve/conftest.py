"""Shared fixtures and controllable stubs for the serving suite."""

import numpy as np
import pytest

from repro import faults
from repro.data.datasets import dataset_from_tensor


@pytest.fixture(autouse=True)
def _no_runlog(monkeypatch):
    """Serving tests must not litter results/runs/."""
    monkeypatch.setenv("REPRO_RUNLOG", "0")


@pytest.fixture(scope="session")
def serve_dataset():
    """A 4×4-grid, 3-feature dataset: big enough to serve, instant to build."""
    rng = np.random.default_rng(7)
    tensor = rng.random((50, 4, 4, 3)) * 30.0
    return dataset_from_tensor(tensor, history=5, horizon=2)


@pytest.fixture
def raw_windows(serve_dataset):
    """Raw-count request windows, exactly what an online caller sends."""
    return serve_dataset.scaler.inverse_transform(serve_dataset.split.test_x)


class ConstantForecaster:
    """Answers every window with one constant normalized value."""

    def __init__(self, horizon, value):
        self.horizon = int(horizon)
        self.value = float(value)
        self.calls = 0

    def predict(self, x):
        x = np.asarray(x)
        self.calls += 1
        return np.full((len(x), self.horizon) + x.shape[2:4], self.value)


class FailingForecaster:
    """Raises on every predict — a tier that is simply down."""

    def __init__(self, message="boom"):
        self.message = message

    def predict(self, x):
        raise RuntimeError(self.message)


class ThresholdFaultForecaster:
    """Raises when any normalized cell exceeds ``threshold``.

    The service clips normalized inputs to ``>= 0`` but not above, so a raw
    window carrying a value far past the scaler's fitted maximum normalizes
    to ``> 1`` — letting a test poison *chosen* windows deterministically.
    """

    def __init__(self, inner, threshold=1.5):
        self.inner = inner
        self.threshold = float(threshold)

    def predict(self, x):
        if np.any(np.asarray(x) > self.threshold):
            raise RuntimeError("poisoned window in batch")
        return self.inner.predict(x)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class PerWindowSlowForecaster:
    """Advances a :class:`FakeClock` by ``per_window × len(batch)``.

    Models a tier whose cost scales with batch size — exactly the cost
    shape the deadline pre-skip has to reason about. Advancing *before*
    delegating means a poisoned batch (inner raises) still pays for the
    windows it pushed through the forecaster.
    """

    def __init__(self, inner, per_window_seconds, clock):
        self.inner = inner
        self.per_window_seconds = float(per_window_seconds)
        self.clock = clock

    def predict(self, x):
        x = np.asarray(x)
        self.clock.advance(self.per_window_seconds * len(x))
        return self.inner.predict(x)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def manual_shard_services(dataset, regions, *, poisoned=(), failing=()):
    """Hand-built per-shard services over the dataset's (full-grid) scaler.

    ``poisoned`` shards get a deterministic :class:`repro.faults`
    injector on the primary (rate=1.0 → every window degrades to the
    Floor tier); ``failing`` shards get a single always-raising tier, so
    the whole shard fails outright.
    """
    from repro.serve import ForecastService

    services = {}
    for region in regions:
        if region.name in failing:
            tiers = [("Broken", FailingForecaster("shard down"))]
        else:
            primary = ConstantForecaster(dataset.horizon, 0.4)
            if region.name in poisoned:
                primary = faults.FaultInjectingForecaster(primary, rate=1.0)
            tiers = [
                ("Primary", primary),
                ("Floor", ConstantForecaster(dataset.horizon, 0.1)),
            ]
        services[region.name] = ForecastService(
            tiers,
            dataset.scaler,
            history=dataset.history,
            horizon=dataset.horizon,
            grid_shape=region.grid_shape,
            num_features=dataset.num_features,
            target_feature=dataset.target_feature,
        )
    return services


def make_shard_router(dataset, num_shards=2, **kwargs):
    """A router over hand-built services (two shards by default); close it
    when done."""
    from repro.serve.shard import ShardRouter, partition_grid

    regions = partition_grid(dataset.grid_shape, num_shards)
    services = manual_shard_services(dataset, regions, **kwargs)
    return ShardRouter(regions, services, max_wait_seconds=0.0)


class FakeClock:
    """A manually advanced monotonic clock, so deadline tests never sleep."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds
