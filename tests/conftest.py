"""Shared fixtures: a tiny simulated city and dataset reused across suites."""

from __future__ import annotations

import numpy as np
import pytest

from repro.city import CityConfig, simulate_city
from repro.data import dataset_from_city
from repro.obs import runlog


@pytest.fixture(scope="session", autouse=True)
def _runlog_tmpdir(tmp_path_factory):
    """Keep the experiment runners' automatic JSONL run logs out of the repo."""
    import os

    directory = tmp_path_factory.mktemp("runlogs")
    previous = os.environ.get(runlog.RUNLOG_DIR_ENV)
    os.environ[runlog.RUNLOG_DIR_ENV] = str(directory)
    yield directory
    if previous is None:
        os.environ.pop(runlog.RUNLOG_DIR_ENV, None)
    else:
        os.environ[runlog.RUNLOG_DIR_ENV] = previous


@pytest.fixture(autouse=True)
def _engine_state_guard():
    """Fail any test that leaves the substrate's dtype or grad flag changed.

    A leaked dtype would silently run every later test file in it.
    """
    from repro.nn import config

    before = (config.dtype(), config.grad_enabled())
    yield
    after = (config.dtype(), config.grad_enabled())
    if after != before:
        config.set_dtype(before[0])
        config.set_grad_enabled(before[1])
        pytest.fail(
            "test left engine state changed: (dtype, grad_enabled) "
            f"was {before}, now {after}"
        )


@pytest.fixture(scope="session")
def tiny_city():
    """A seconds-scale city shared by every suite that needs records."""
    config = CityConfig(
        rows=6,
        cols=6,
        num_lines=2,
        num_commuters=300,
        num_bikes=120,
        days=5,
        background_subway_per_day=100,
        background_bike_per_day=80,
        seed=11,
    )
    return simulate_city(config)


@pytest.fixture(scope="session")
def tiny_dataset(tiny_city):
    """Supervised windows over the tiny city: h=6, p=3."""
    return dataset_from_city(tiny_city, history=6, horizon=3)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
