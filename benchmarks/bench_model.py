"""Whole-model BikeCAP training benchmarks across engine modes.

Where ``benchmarks/bench_train.py`` times one optimizer step of a shrunken
model in the two classic modes, this module is the gate for the fused-
kernel / mixed-precision work: it times BikeCAP training on the medium
grid in three configurations —

- ``fast``    — float32, cross-op fusion *disabled* (the pre-fusion fast
  mode, kept as the in-snapshot baseline);
- ``fused``   — float32 with :mod:`repro.nn.fusion` kernels;
- ``mixed``   — fused float32 compute with float64 master weights and
  dynamic loss scaling (``engine mode "mixed"``).

It writes ``results/BENCH_model.json`` (``REPRO_BENCH_DIR`` overrides the
directory) containing the measured stats, the frozen pre-PR reference
timings, the computed speedups, and — crucially — a ``speedup_floors``
section that ``scripts/bench_compare.py`` enforces: a candidate snapshot
whose fused/mixed speedup falls below a floor fails the comparison. Every
speedup names the reference it is computed against in
``speedup_references`` (see docs/PERFORMANCE.md for why that provenance
matters: several historical "speedups" were machine drift).
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
# before the fusion/mixed-precision PR (2026-08-08, same harness: identical
# model configs, seeds, batch shapes and round counts as the benches
# below). "fast" is that commit's float32 fast mode — the dispatch and
# kernels this PR's fused/mixed modes are measured against.
PRE_PR_SECONDS = {
    "epoch_medium": {
        "fast": {"min": 0.07040, "mean": 0.07533},
        "float64": {"min": 0.10364, "mean": 0.11917},
    },
    "step_paper": {
        "fast": {"min": 0.05089, "mean": 0.05848},
        "float64": {"min": 0.08353, "mean": 0.08833},
    },
}

# The issue's aspirational target for fused+mixed vs the pre-PR fast mode.
# Honest measurement on this machine falls well short: elementwise fusion
# only touches ~10% of the step (FFT/GEMM convolutions and the routing
# einsum dominate), so the enforced floors below gate against *regression*
# while PERFORMANCE.md documents the measured gap to the target.
SPEEDUP_TARGET = 2.0
SPEEDUP_FLOORS = {
    "epoch_medium.fused_vs_pre_pr_fast": 0.80,
    "epoch_medium.mixed_vs_pre_pr_fast": 0.80,
    "step_paper.fused_vs_pre_pr_fast": 0.80,
    "step_paper.mixed_vs_pre_pr_fast": 0.80,
}

SPEEDUP_REFERENCES = {
    "pre_pr_fast": (
        "frozen fast-mode (float32) timing from the commit before the "
        "fusion PR, measured 2026-08-08 on this machine with this harness "
        "(PRE_PR_SECONDS in benchmarks/bench_model.py)"
    ),
    "fast_unfused": (
        "the 'fast' mode rows of this same snapshot: float32 with fusion "
        "disabled, measured in the same process minutes apart"
    ),
}

# epoch_medium: the bench_train "medium" model, one epoch = 4 batches.
# step_paper: paper-default grid/pyramid (16x12, pyramid 5), one batch.
CASES = {
    "epoch_medium": dict(
        grid=(10, 10), history=8, horizon=4, batch=16, batches=4,
        pyramid=3, capsule=2, future_capsule=2, decoder=4,
    ),
    "step_paper": dict(
        grid=(16, 12), history=8, horizon=4, batch=16, batches=1,
        pyramid=5, capsule=4, future_capsule=4, decoder=8,
    ),
}

MODES = {
    # mode name -> (engine mode, fusion enabled)
    "fast": ("fast", False),
    "fused": ("fast", True),
    "mixed": ("mixed", True),
}


def _record(benchmark, case: str, mode: str) -> None:
    stats = getattr(benchmark, "stats", None)
    stats = getattr(stats, "stats", None)
    if stats is None:  # --benchmark-disable runs have no stats
        return
    obs_metrics.gauge("bench_model_mean_seconds", case=case, mode=mode).set(stats.mean)
    obs_metrics.gauge("bench_model_min_seconds", case=case, mode=mode).set(stats.min)


@pytest.fixture(scope="module", autouse=True)
def _bench_snapshot():
    """Persist BENCH_model.json with speedups + enforced floors on exit."""
    yield
    snapshot = obs_metrics.snapshot()
    gauges = {
        key: value
        for key, value in snapshot["gauges"].items()
        if key.startswith("bench_model_")
    }
    if not gauges:
        return

    def mean_of(case: str, mode: str):
        return gauges.get(f"bench_model_mean_seconds{{case={case},mode={mode}}}")

    speedups = {}
    for case, reference in PRE_PR_SECONDS.items():
        entry = {}
        baseline = mean_of(case, "fast")
        for mode in ("fused", "mixed"):
            measured = mean_of(case, mode)
            if not measured:
                continue
            entry[f"{mode}_vs_pre_pr_fast"] = reference["fast"]["mean"] / measured
            if baseline:
                entry[f"{mode}_vs_fast_unfused"] = baseline / measured
        if baseline:
            entry["fast_vs_pre_pr_fast"] = reference["fast"]["mean"] / baseline
        if entry:
            speedups[case] = entry
    payload = {
        "gauges": gauges,
        "pre_pr_reference_seconds": PRE_PR_SECONDS,
        "speedup": speedups,
        "speedup_references": SPEEDUP_REFERENCES,
        "speedup_floors": SPEEDUP_FLOORS,
        "speedup_target": {
            "mixed_vs_pre_pr_fast": SPEEDUP_TARGET,
            "status": "aspirational; measured gap documented in docs/PERFORMANCE.md",
        },
    }
    directory = os.environ.get("REPRO_BENCH_DIR", "results")
    os.makedirs(directory, exist_ok=True)
    atomic_write_json(os.path.join(directory, "BENCH_model.json"), payload, sort_keys=True)


@pytest.fixture()
def engine_mode():
    """Restore precision, fusion and caches around each bench."""
    previous_mode = nn_config.engine_mode()
    previous_fusion = nn_config.fusion_enabled()

    def configure(mode: str) -> None:
        engine_mode, fusion = MODES[mode]
        nn_config.set_engine_mode(engine_mode)
        nn_config.set_fusion_enabled(fusion)
        engine.clear_caches()

    yield configure
    nn_config.set_engine_mode(previous_mode)
    nn_config.set_fusion_enabled(previous_fusion)
    engine.clear_caches()


def _make_trainer(case):
    cfg = BikeCAPConfig(
        grid=case["grid"],
        history=case["history"],
        horizon=case["horizon"],
        features=4,
        pyramid_size=case["pyramid"],
        capsule_dim=case["capsule"],
        future_capsule_dim=case["future_capsule"],
        decoder_hidden=case["decoder"],
        seed=0,
    )
    model = BikeCAP(cfg)
    trainer = Trainer(model, loss="l1", batch_size=case["batch"], seed=0)
    rng = np.random.default_rng(0)
    dtype = nn_config.dtype()
    batches = [
        (
            rng.random((case["batch"], case["history"], *case["grid"], 4)).astype(dtype),
            rng.random((case["batch"], case["horizon"], *case["grid"])).astype(dtype),
        )
        for _ in range(case["batches"])
    ]
    return trainer, batches


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("mode", sorted(MODES))
def test_model_epoch(benchmark, engine_mode, case, mode):
    engine_mode(mode)
    trainer, batches = _make_trainer(CASES[case])

    def epoch():
        loss = 0.0
        for x, y in batches:
            loss = trainer.train_step(x, y)
        return loss

    loss = benchmark(epoch)
    _record(benchmark, case, mode)
    assert np.isfinite(loss)
