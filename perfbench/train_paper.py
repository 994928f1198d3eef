"""Workload ``train_paper``: BikeCAP training at the paper's geometry.

The paper-profile synthetic city (16×12 grid, 0.995-quantile scaler) is
windowed with h=8, p=8 into the chunked ``WindowStore``; BikeCAP with
pyramid 5, capsule dimension 4 and decoder width 8 trains on it with the
profile's MSE loss, batch 32 and a fixed seed. Training goes through the
calls ``runner.execute`` is built from: ``registry.build``, then the
forecaster's ``fit`` under ``run_with_recovery`` with the default policy,
with batches streamed from the store.

One repetition is one epoch (every train step plus the validation pass)
from the same freshly built model, so every repetition must end at the
same validation loss, bit for bit. Repetitions continue while the run's
time budget allows another one.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Dict, List

from repro.obs.observers import TrainingObserver

from perfbench import spans as spanlib
from perfbench.common import (
    Result,
    SetupClock,
    counter_delta,
    engine_state,
    hit_ratio,
    median,
    peak_rss_mb,
    percentile,
    program_counters,
)

BATCH = 32
MODEL_SEED = 0
HPARAMS = {"pyramid_size": 5, "capsule_dim": 4, "decoder_hidden": 8, "loss": "mse",
           "batch_size": BATCH}
TINY_HPARAMS = {"pyramid_size": 2, "capsule_dim": 2, "future_capsule_dim": 2,
                "decoder_hidden": 2, "loss": "mse", "batch_size": BATCH}
SETUPS = 3
TAIL_PERCENTILE = 80.0  # an epoch has 51 steps: about ten lie beyond

STEP_LAYERS = [
    "store.batch",
    "training.loop_remainder",
    "core.pyramid_conv",
    "core.capsules",
    "core.routing",
    "core.decoder",
    "core.forward_remainder",
    "nn.loss",
    "nn.optimizer",
    "training.step_remainder",
]
RENAME = {"training.step": "training.step_remainder", "core.forward": "core.forward_remainder"}


class _Setup:
    def __init__(self, dataset, spec, parameters):
        self.dataset = dataset
        self.spec = spec
        self.parameters = parameters


def _city_config(tiny: bool):
    from repro.experiments.profiles import PROFILES

    city = PROFILES["paper"].city
    if tiny:
        city = dataclasses.replace(city, rows=6, cols=5, days=3, num_commuters=300,
                                   num_bikes=150, num_lines=2)
    return city


def _set_up(tiny: bool) -> _Setup:
    from repro.city.simulator import simulate_city
    from repro.data.aggregation import aggregate_city
    from repro.data.datasets import dataset_from_tensor
    from repro.experiments.profiles import PROFILES
    from repro.pipeline import RunSpec, registry

    profile = PROFILES["paper"]
    tensor = aggregate_city(simulate_city(_city_config(tiny)))
    dataset = dataset_from_tensor(
        tensor,
        history=profile.history,
        horizon=profile.ablation_horizon,
        normalization_quantile=profile.normalization_quantile,
        streaming=True,
    )
    spec = RunSpec(
        model="BikeCAP",
        history=profile.history,
        horizon=profile.ablation_horizon,
        epochs=1,
        seed=MODEL_SEED,
        hparams=dict(TINY_HPARAMS if tiny else HPARAMS),
    )
    # Warm the engine's shape-keyed plans for every batch shape an epoch
    # uses (full and last partial batch, train and validation) on a
    # throwaway model, so the timed epochs measure steady-state steps.
    warm = registry.build(spec, dataset)
    train, val = dataset.train_view(), dataset.val_view()
    for view, sizes in ((train, _batch_sizes(len(train))), (val, _batch_sizes(len(val)))):
        for size in sizes:
            x, y = dataset.store.windows(view.start, view.start + size)
            if view is train:
                warm.trainer.train_step(x, y)
            else:
                warm.trainer.evaluate(x, y)
    return _Setup(dataset, spec, warm.model.num_parameters())


def _batch_sizes(count: int) -> List[int]:
    sizes = [min(BATCH, count)]
    if count > BATCH and count % BATCH:
        sizes.append(count % BATCH)
    return sizes


class StepClock(TrainingObserver):
    """Training observer noting when each optimizer step completes, and its loss."""

    def __init__(self):
        self.marks: List[float] = []
        self.losses: List[float] = []

    def on_fit_start(self, info) -> None:
        self.marks.append(time.perf_counter())

    def on_step(self, info) -> None:
        self.marks.append(time.perf_counter())
        self.losses.append(float(info["loss"]))

    @property
    def intervals(self) -> List[float]:
        return [b - a for a, b in zip(self.marks, self.marks[1:])]


def _wrap_for_trace(recorder: spanlib.Recorder, forecaster, dataset) -> None:
    trainer = forecaster.trainer
    spanlib.wrap_core(recorder, forecaster.model)
    recorder.wrap(trainer, "train_step", "training.step")
    recorder.wrap(trainer, "loss_fn", "nn.loss")
    recorder.wrap(trainer.optimizer, "step", "nn.optimizer")
    recorder.wrap(trainer, "evaluate", "training.eval")
    recorder.wrap_iterator(dataset.train_source(), "batches", "store.batch")


def _epoch(setup: _Setup, recorder=None) -> Dict[str, object]:
    """Build the model fresh and train one epoch through the recovery loop."""
    from repro.pipeline import registry
    from repro.resilience import RecoveryPolicy, run_with_recovery

    spec, dataset = setup.spec, setup.dataset
    forecaster = registry.build(spec, dataset)
    steps = StepClock()
    if recorder is not None:
        _wrap_for_trace(recorder, forecaster, dataset)

    def fit_once(resume_from, watchers):
        return forecaster.fit(
            dataset,
            epochs=spec.epochs,
            resume_from=resume_from,
            observers=list(watchers) + [steps],
        )

    before = program_counters()
    began = time.perf_counter()
    history, report = run_with_recovery(
        forecaster.trainer,
        fit_once,
        policy=RecoveryPolicy.from_dict(spec.resilience),
        model_label=spec.label(default_horizon=dataset.horizon),
    )
    ended = time.perf_counter()
    return {
        "seconds": ended - began,
        "val_loss": history["val_loss"][-1],
        "losses": steps.losses,
        "step_seconds": steps.intervals,
        "rollbacks": report.rollback_count,
        "counters": counter_delta(before, program_counters()),
    }


def run(seconds: float, seed: int, trace: bool, tiny: bool, process_start: float) -> Result:
    """Set up three times, then train whole epochs for about ``seconds``.

    ``seed`` is unused: the data and the model seed are fixed so that the
    validation loss is reproducible bit for bit and arithmetic changes show.
    """
    del seed
    result = Result()
    setups = SetupClock(process_start)
    setup = None
    for _ in range(SETUPS):
        setups.begin()
        setup = _set_up(tiny)
        setups.end()

    epochs = []
    recorder = spanlib.Recorder() if trace else None
    if trace:
        # One untraced and one traced epoch: the pair gives the tracing
        # overhead and proves the wrappers change no arithmetic.
        epochs.append(_epoch(setup))
        epochs.append(_epoch(setup, recorder))
    else:
        budget_end = time.perf_counter() + seconds
        while True:
            epochs.append(_epoch(setup))
            typical = median([e["seconds"] for e in epochs])
            if time.perf_counter() + typical > budget_end:
                break

    losses = [loss for e in epochs for loss in e["losses"]]
    val_losses = [e["val_loss"] for e in epochs]
    step_seconds = [s for e in epochs for s in e["step_seconds"]]
    epoch_seconds = [e["seconds"] for e in epochs]
    train_windows = setup.dataset.train_view().num_samples
    result.attempted = len(losses)
    result.failed = sum(1 for loss in losses if not math.isfinite(loss))
    result.check("losses_finite", result.failed == 0)
    result.check("no_rollbacks", all(e["rollbacks"] == 0 for e in epochs))
    result.check("val_loss_identical_across_epochs",
                 all(v == val_losses[0] for v in val_losses) and math.isfinite(val_losses[0]))
    result.report.update(
        {
            "engine": engine_state(),
            "train_windows": train_windows,
            "val_windows": setup.dataset.val_view().num_samples,
            "parameters": setup.parameters,
            "epochs": len(epochs),
            "train_epoch_s": epoch_seconds,
            "train_val_loss": [repr(v) for v in val_losses],
            "setup_s_each": setups.durations,
            "steps": len(step_seconds),
        }
    )
    if not trace:
        median_epoch = median(epoch_seconds)
        result.metrics.update(
            {
                "setup_s": setups.median,
                "peak_rss_mb": peak_rss_mb(),
                "latency_p50_ms": percentile(step_seconds, 50.0) * 1e3,
                "latency_tail_ms": percentile(step_seconds, TAIL_PERCENTILE) * 1e3,
                "throughput_per_s": train_windows / median_epoch,
                "model_error": val_losses[-1],
            }
        )
        result.report["train_epoch_s_median"] = median_epoch
        result.report["latency_tail_percentile"] = TAIL_PERCENTILE
        return result

    _trace_report(result, recorder, epochs)
    return result


def _trace_report(result: Result, recorder: spanlib.Recorder, epochs) -> None:
    untraced, traced = epochs
    tree = spanlib.Tree(recorder.spans)
    batches = tree.named("store.batch")
    steps = tree.named("training.step")
    evals = tree.named("training.eval")
    ledgers = []
    for step in steps:
        batch = max((b for b in batches if b[3] <= step[2]), key=lambda b: b[3])
        ledger = spanlib.Ledger(step[3] - batch[2])
        ledger.add("store.batch", batch[3] - batch[2])
        ledger.add("training.loop_remainder", step[2] - batch[3])
        ledger.charge_subtree(tree, step[0], RENAME)
        ledgers.append(ledger)
    per_step = spanlib.summarize(ledgers, STEP_LAYERS)
    step_wall = sum(l.wall for l in ledgers)
    eval_seconds = sum(e[3] - e[2] for e in evals)
    epoch_remainder = traced["seconds"] - step_wall - eval_seconds
    overhead = traced["seconds"] - untraced["seconds"]
    step_untraced = median(untraced["step_seconds"])
    step_traced = median(traced["step_seconds"])
    result.check("traced_val_loss_bit_identical", traced["val_loss"] == untraced["val_loss"])
    result.check("trace_reconciles", spanlib.max_residual_ms(ledgers) < 1e-6
                 and not spanlib.unaccounted_layers(ledgers, STEP_LAYERS))
    result.check("trace_no_spans_dropped", recorder.dropped == 0)
    result.check("trace_one_ledger_per_step", len(ledgers) == len(traced["losses"]) > 0)
    for layer in STEP_LAYERS:
        result.metrics[f"{layer}_ms"] = per_step[layer]
    result.metrics["training.eval_ms"] = eval_seconds / len(evals) * 1e3 if evals else 0.0
    result.metrics["nn.plan_cache_hit_ratio"] = hit_ratio(traced["counters"])
    result.report["trace"] = {
        "spans_recorded": len(recorder.spans),
        "spans_dropped": recorder.dropped,
        "units": len(ledgers),
        "unit": "training step (batch fetch to end of train_step)",
        "max_residual_ms": spanlib.max_residual_ms(ledgers),
        "mean_step_wall_ms": step_wall / len(ledgers) * 1e3,
        "epoch_s_untraced": untraced["seconds"],
        "epoch_s_traced": traced["seconds"],
        "overhead_s": overhead,
        "step_p50_ms_untraced": step_untraced * 1e3,
        "step_p50_ms_traced": step_traced * 1e3,
        "epoch_remainder_ms": epoch_remainder * 1e3,
        "val_loss_untraced": repr(untraced["val_loss"]),
        "val_loss_traced": repr(traced["val_loss"]),
    }
    # Overhead on latency_p50_ms, the median step: steadier than the
    # whole-epoch difference, which also carries the host's slow spells.
    result.metrics["trace.overhead_pct"] = (step_traced - step_untraced) / step_untraced * 100.0
    result.metrics["trace.spans_recorded"] = float(len(recorder.spans))
    result.metrics["trace.spans_dropped"] = float(recorder.dropped)
    result.trace_recorder = recorder
