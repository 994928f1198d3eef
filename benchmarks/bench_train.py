"""End-to-end BikeCAP training-step benchmarks (the perf-trajectory anchor).

Times one full optimizer step (zero_grad → forward → L1 loss → backward →
clip → Adam) on two model sizes, in both dtypes (``repro.nn.config.use_dtype``):

- ``precise`` — float64, the reference path.
- ``fast`` — float32, the substrate default.

The module writes ``results/BENCH_train.json`` (``REPRO_BENCH_DIR``
overrides the directory) containing the measured stats, the frozen pre-PR
reference timings for the same cases on the same machine, and the computed
speedups — the second file in the ``BENCH_*.json`` perf-trajectory series
(after ``BENCH_substrate.json``). Compare snapshots across commits with
``scripts/bench_compare.py``.
"""

import os

import numpy as np
import pytest

from repro.core import BikeCAP, BikeCAPConfig
from repro.nn import Trainer
from repro.nn import config as nn_config
from repro.nn import engine
from repro.obs import metrics as obs_metrics
from repro.obs.artifacts import atomic_write_json

# Reference timings measured on this machine at the commit immediately
# before the engine PR (float64 substrate — the only mode that existed;
# "fast32" is the same code with set_dtype(float32)). Same model configs,
# seeds and batch shapes as the benches below, 20 rounds after 3 warmups.
PRE_PR_SECONDS = {
    "train_step_small": {
        "float64": {"min": 0.01291, "mean": 0.01352},
        "fast32": {"min": 0.01043, "mean": 0.01178},
    },
    "train_step_medium": {
        "float64": {"min": 0.05223, "mean": 0.05928},
        "fast32": {"min": 0.02057, "mean": 0.02615},
    },
}

CASES = {
    "train_step_small": dict(grid=(8, 8), history=6, horizon=3, batch=8),
    "train_step_medium": dict(grid=(10, 10), history=8, horizon=4, batch=16),
}


def _record(benchmark, case: str, mode: str) -> None:
    stats = getattr(benchmark, "stats", None)
    stats = getattr(stats, "stats", None)
    if stats is None:  # --benchmark-disable runs have no stats
        return
    obs_metrics.gauge("bench_train_mean_seconds", case=case, mode=mode).set(stats.mean)
    obs_metrics.gauge("bench_train_min_seconds", case=case, mode=mode).set(stats.min)


@pytest.fixture(scope="module", autouse=True)
def _bench_snapshot():
    """Persist BENCH_train.json with before/after numbers on module exit."""
    yield
    snapshot = obs_metrics.snapshot()
    gauges = {
        key: value
        for key, value in snapshot["gauges"].items()
        if key.startswith("bench_train_")
    }
    if not gauges:
        return
    speedups = {}
    for case, reference in PRE_PR_SECONDS.items():
        key = f"bench_train_mean_seconds{{case={case},mode=fast}}"
        if key in gauges and gauges[key] > 0:
            speedups[case] = {
                "fast_vs_pre_pr_float64": reference["float64"]["mean"] / gauges[key],
                "fast_vs_pre_pr_fast32": reference["fast32"]["mean"] / gauges[key],
            }
        key = f"bench_train_mean_seconds{{case={case},mode=precise}}"
        if key in gauges and gauges[key] > 0:
            speedups.setdefault(case, {})["precise_vs_pre_pr_float64"] = (
                reference["float64"]["mean"] / gauges[key]
            )
    payload = {
        "gauges": gauges,
        "pre_pr_reference_seconds": PRE_PR_SECONDS,
        "speedup": speedups,
        # Which reference epoch each speedup denominator refers to —
        # bench_compare.py prints this next to the ratios. These frozen
        # numbers predate several engine PRs *and* any machine-speed drift
        # since they were taken, so treat the ratios as trajectory, not as
        # the effect of the current commit (docs/PERFORMANCE.md discusses
        # the measured drift).
        "speedup_references": {
            "pre_pr_float64": (
                "frozen float64 timing from the commit before the engine PR "
                "(PRE_PR_SECONDS in benchmarks/bench_train.py)"
            ),
            "pre_pr_fast32": (
                "frozen float32 timing of the same pre-engine-PR commit "
                "(set_dtype(float32) on the old substrate)"
            ),
        },
    }
    directory = os.environ.get("REPRO_BENCH_DIR", "results")
    os.makedirs(directory, exist_ok=True)
    atomic_write_json(os.path.join(directory, "BENCH_train.json"), payload, sort_keys=True)


DTYPES = {"precise": np.float64, "fast": np.float32}


@pytest.fixture()
def fresh_caches():
    """Drop the plans each bench built."""
    yield
    engine.clear_caches()


def _make_trainer(case):
    cfg = BikeCAPConfig(
        grid=case["grid"],
        history=case["history"],
        horizon=case["horizon"],
        features=4,
        pyramid_size=3,
        capsule_dim=2,
        future_capsule_dim=2,
        decoder_hidden=4,
        seed=0,
    )
    model = BikeCAP(cfg)
    trainer = Trainer(model, loss="l1", batch_size=case["batch"], seed=0)
    rng = np.random.default_rng(0)
    dtype = nn_config.dtype()
    x = rng.random((case["batch"], case["history"], *case["grid"], 4)).astype(dtype)
    y = rng.random((case["batch"], case["horizon"], *case["grid"])).astype(dtype)
    return trainer, x, y


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("mode", ["precise", "fast"])
def test_train_step(benchmark, fresh_caches, case, mode):
    with nn_config.use_dtype(DTYPES[mode]):
        trainer, x, y = _make_trainer(CASES[case])
        loss = benchmark(lambda: trainer.train_step(x, y))
    _record(benchmark, case, mode)
    assert np.isfinite(loss)
