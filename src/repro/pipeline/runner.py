"""Execute a :class:`~repro.pipeline.spec.RunSpec` against a dataset.

``execute`` is the one funnel every experiment goes through: it builds the
model from the registry, applies the spec's dtype, opens a
structured run log and a tracing span, trains with optional full-state
checkpointing/resume, and evaluates on the test split. Experiment scripts
never touch forecaster classes directly — they describe runs as specs and
hand them here (enforced by ``scripts/check_layering.py``).
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.data.datasets import BikeDemandDataset
from repro.metrics.evaluation import evaluate_forecaster
from repro.nn import config as nn_config
from repro.obs import runlog, serve_metrics, tracing
from repro.pipeline import checkpoint as ckpt
from repro.pipeline import registry
from repro.pipeline.spec import RunSpec
from repro.resilience import RecoveryPolicy, run_with_recovery


@dataclass
class RunResult:
    """Everything one executed spec produced."""

    spec: RunSpec
    label: str
    metrics: Dict[str, float]
    history: Dict[str, Any] = field(default_factory=dict)
    forecaster: Any = None
    checkpoint_path: Optional[str] = None
    resumed_from: Optional[str] = None
    # RecoveryReport.as_dict() of the divergence-recovery loop (neural
    # runs only; empty rollback list when training stayed healthy).
    resilience: Optional[Dict[str, Any]] = None


def _engine_overrides(spec: RunSpec):
    """Pin the spec's dtype for the block, if it names one."""
    if spec.dtype is None:
        return contextlib.nullcontext()
    return nn_config.use_dtype(spec.dtype)


def run_config(spec: RunSpec, extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """The config dict recorded in the run log: spec + live engine state."""
    config: Dict[str, Any] = dict(extra) if extra else {}
    config["spec"] = spec.to_dict()
    # Engine state belongs in every run record: results are only comparable
    # across runs that used the same precision and sharding.
    config.setdefault("dtype", np.dtype(nn_config.dtype()).name)
    config.setdefault("engine_mode", nn_config.engine_mode())
    config.setdefault("num_threads", nn_config.num_threads())
    return config


def execute(
    spec: RunSpec,
    dataset: BikeDemandDataset,
    *,
    label: Optional[str] = None,
    log_config: Optional[Dict[str, Any]] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    verbose: bool = False,
) -> RunResult:
    """Build, train, and evaluate the model a spec describes.

    With ``checkpoint_dir`` set, neural models autosave full training state
    each epoch to ``<dir>/<label>-seed<seed>.ckpt.npz``; with ``resume``
    also set, an existing file there is *validated* (CRC manifest; a
    damaged autosave is quarantined to ``*.corrupt`` and the rotated
    ``*.prev`` generation tried instead) and restored, so an interrupted
    run continues bit-exactly where it stopped.

    Neural runs train under a divergence-recovery policy (see
    :mod:`repro.resilience`): a NaN/Inf loss, gradient or weight — or a
    loss spike past the policy's threshold — rolls the trainer back to its
    last good epoch snapshot, halves the learning rate, and retries.
    ``spec.resilience`` tunes or disables this
    (``{"enabled": False}`` for raise-immediately behavior); the
    result's ``resilience`` field records what the policy saw and did.
    """
    label = label or spec.label(default_horizon=dataset.horizon)
    with _engine_overrides(spec):
        forecaster = registry.build(spec, dataset)
        neural = registry.is_neural(spec.model)
        checkpoint_path = None
        resume_from = None
        if checkpoint_dir is not None and neural:
            os.makedirs(checkpoint_dir, exist_ok=True)
            checkpoint_path = ckpt.checkpoint_path(checkpoint_dir, label, spec.seed)
            if resume:
                resume_from = ckpt.validated_restore(
                    ckpt.find_checkpoint(checkpoint_dir, label, spec.seed)
                )

        policy = RecoveryPolicy.from_dict(spec.resilience)
        report = None
        # Opt-in live telemetry + request-scoped tracing: REPRO_TELEMETRY_PORT
        # exposes /metrics while the run is alive; REPRO_TRACE records real
        # spans and persists them beside the run log on completion.
        serve_metrics.ensure_exporter_from_env()
        tracing_run = tracing.env_enabled() and not tracing.is_recording()
        if tracing_run:
            tracing.start_recording()
        logger = runlog.start_run(label, seed=spec.seed, config=run_config(spec, log_config))
        trace_base = None
        if tracing_run:
            trace_base = (
                os.path.splitext(logger.path)[0]
                if logger is not None
                else os.path.join(runlog.default_dir(), f"trace-{label}-{os.getpid()}")
            )
        try:
            with tracing.span(f"experiment.{label}"):
                trainer = getattr(forecaster, "trainer", None)
                if neural and trainer is not None:

                    def fit_once(resume_point, watchers):
                        return forecaster.fit(
                            dataset,
                            epochs=spec.epochs,
                            verbose=verbose,
                            checkpoint_path=checkpoint_path,
                            resume_from=resume_point,
                            observers=watchers,
                        )

                    history, report = run_with_recovery(
                        trainer,
                        fit_once,
                        policy=policy,
                        model_label=label,
                        initial_resume=resume_from,
                    )
                else:
                    history = forecaster.fit(
                        dataset,
                        epochs=spec.epochs,
                        verbose=verbose,
                        checkpoint_path=checkpoint_path,
                        resume_from=resume_from,
                    )
                metrics = evaluate_forecaster(forecaster, dataset)
            if logger is not None:
                close_info: Dict[str, Any] = dict(metrics)
                if report is not None and report.rollback_count:
                    close_info["rollbacks"] = report.rollback_count
                logger.event("eval", split="test", **metrics)
                # Publish the engine's plan-cache statistics as obs gauges
                # and record them in the log, so ``obs.report --format
                # json`` can digest cache effectiveness per run.
                from repro.nn import engine as nn_engine

                logger.event("plan_cache", **nn_engine.publish_plan_cache_stats())
                logger.close(status="ok", **close_info)
                logger = None
        finally:
            if logger is not None:
                logger.close(status="error")
            if trace_base is not None:
                # Persist whatever spans the run recorded beside its run log,
                # in both the raw JSONL form and the Perfetto-loadable one.
                tracing.dump_jsonl(trace_base + ".trace.jsonl")
                tracing.dump_chrome_trace(trace_base + ".chrome.json")
                tracing.stop_recording()

    return RunResult(
        spec=spec,
        label=label,
        metrics=metrics,
        history=history if isinstance(history, dict) else {},
        forecaster=forecaster,
        checkpoint_path=checkpoint_path,
        resumed_from=resume_from,
        resilience=report.as_dict() if report is not None else None,
    )


__all__ = ["RunResult", "execute", "run_config"]
