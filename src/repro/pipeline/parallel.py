"""Multiprocess data-parallel execution of independent RunSpecs.

A big enough training step already runs as two shards on two threads
(:func:`repro.nn.engine.run_shards`); this module is the level above it:
whole *runs* (one :class:`~repro.pipeline.spec.RunSpec` per seed) are
independent by construction — each seeds its own generators from
``spec.seed`` and never reads process-global RNG state — so a
repeated-seed sweep can fan out across worker processes without changing
a single bit of the result. ``run_all --jobs N`` routes through
:func:`run_specs`.

Design constraints the implementation follows:

- **Fork, not spawn.** Workers are forked after the parent has simulated
  the city and built the dataset, so the (potentially large) training
  arrays are inherited copy-on-write through module globals instead of
  being pickled per task. Only small things cross the pipe: spec dicts in,
  metric dicts out. On platforms without ``fork`` the sweep silently runs
  serially — same results, no worker processes.
- **Engine config travels with the job.** Each worker re-applies the
  parent's engine snapshot (dtype, plan-cache flag) before its first run,
  so a ``--dtype float64`` sweep is float64 in every worker even if the
  pool outlives a config change in the parent.
- **Crash isolation.** A worker that raises — or dies outright, taking the
  pool with it — fails only its own runs; the parent retries each failed
  spec serially, with ``resume=True`` when a checkpoint directory is
  configured so the retry continues from the crashed worker's last
  autosave (the same :mod:`repro.pipeline.checkpoint` machinery the
  resilience layer uses).
- **Per-worker run logs.** Run-log files already embed the writing
  process's pid (``run-<label>-<pid>-<seq>.jsonl``), so concurrent workers
  never contend for a file; each worker additionally stamps its pid into
  the run config as ``worker_pid`` for cross-referencing.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, process
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import config as nn_config
from repro.obs import metrics as obs_metrics
from repro.pipeline.spec import RunSpec

# Fork-inherited job context: the parent parks the dataset (and shared run
# settings) here right before creating the pool; forked children see the
# same object through copy-on-write memory, so it never crosses a pipe.
_FORK_CONTEXT: Dict[str, Any] = {}


def engine_snapshot() -> Dict[str, Any]:
    """The engine configuration a worker must replicate to match the parent."""
    return {
        "dtype": np.dtype(nn_config.dtype()).str,
        "plan_cache": nn_config.plan_cache_enabled(),
    }


def apply_engine_snapshot(snapshot: Dict[str, Any]) -> None:
    """Re-apply a parent's :func:`engine_snapshot` in this process."""
    nn_config.set_dtype(snapshot["dtype"])
    nn_config.set_plan_cache_enabled(snapshot["plan_cache"])


def _worker_init(snapshot: Dict[str, Any]) -> None:
    """Pool initializer: make the forked child a faithful engine replica.

    The fork inherited the parent's shard-pool handle and caches by value,
    but not the pool's thread; reset them so this worker lazily builds its
    own, then pin the engine config.
    """
    from repro.nn import engine

    engine.reset_executor(wait=False)
    engine.clear_caches()
    apply_engine_snapshot(snapshot)


def _run_one(job: Tuple[int, Dict[str, Any]]) -> Tuple[int, Optional[Dict[str, float]], Optional[str]]:
    """Execute one spec in a worker; never raises across the pipe.

    Returns ``(index, metrics, None)`` on success and
    ``(index, None, reason)`` on failure, so one diverged or crashed run
    cannot poison the sweep — the parent retries it serially.
    """
    index, spec_dict = job
    try:
        from repro.pipeline import runner as pipeline_runner

        spec = RunSpec.from_dict(spec_dict)
        log_config = dict(_FORK_CONTEXT.get("log_config") or {})
        log_config["worker_pid"] = os.getpid()
        result = pipeline_runner.execute(
            spec,
            _FORK_CONTEXT["dataset"],
            label=_FORK_CONTEXT.get("label"),
            log_config=log_config,
            checkpoint_dir=_FORK_CONTEXT.get("checkpoint_dir"),
            resume=bool(_FORK_CONTEXT.get("resume")),
        )
        return index, result.metrics, None
    except BaseException as error:  # noqa: BLE001 - the pipe is the boundary
        return index, None, f"{type(error).__name__}: {error}"


def _run_serial(
    spec: RunSpec,
    dataset,
    *,
    label: Optional[str],
    log_config: Optional[Dict[str, Any]],
    checkpoint_dir: Optional[str],
    resume: bool,
) -> Dict[str, float]:
    from repro.pipeline import runner as pipeline_runner

    return pipeline_runner.execute(
        spec,
        dataset,
        label=label,
        log_config=log_config,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
    ).metrics


def fork_available() -> bool:
    """Whether this platform supports fork-based worker pools."""
    return "fork" in multiprocessing.get_all_start_methods()


def run_specs(
    specs: Sequence[RunSpec],
    dataset,
    *,
    jobs: int = 1,
    label: Optional[str] = None,
    log_config: Optional[Dict[str, Any]] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
) -> List[Dict[str, float]]:
    """Execute every spec, fanning out across ``jobs`` worker processes.

    Returns one metrics dict per spec, in input order — byte-identical to
    running the same specs in a serial loop, because each run's randomness
    derives solely from its ``spec.seed``. With ``jobs <= 1``, a single
    spec, or no fork support, no pool is created at all.
    """
    specs = list(specs)
    jobs = max(1, int(jobs))
    if jobs <= 1 or len(specs) <= 1 or not fork_available():
        return [
            _run_serial(
                spec,
                dataset,
                label=label,
                log_config=log_config,
                checkpoint_dir=checkpoint_dir,
                resume=resume,
            )
            for spec in specs
        ]

    # Park the heavyweight, non-picklable job context where forked children
    # can inherit it; keep it in place for the pool's whole lifetime.
    _FORK_CONTEXT.clear()
    _FORK_CONTEXT.update(
        {
            "dataset": dataset,
            "label": label,
            "log_config": log_config,
            "checkpoint_dir": checkpoint_dir,
            "resume": resume,
        }
    )
    jobs_used = min(jobs, len(specs))
    obs_metrics.gauge("sweep_jobs").set(jobs_used)
    results: List[Optional[Dict[str, float]]] = [None] * len(specs)
    failed: List[Tuple[int, str]] = []
    payload = [(index, spec.to_dict()) for index, spec in enumerate(specs)]
    try:
        with ProcessPoolExecutor(
            max_workers=jobs_used,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_worker_init,
            initargs=(engine_snapshot(),),
        ) as pool:
            try:
                for index, metrics, error in pool.map(_run_one, payload):
                    if error is None:
                        results[index] = metrics
                        obs_metrics.counter("sweep_runs_total", outcome="ok").inc()
                    else:
                        failed.append((index, error))
            except process.BrokenProcessPool:
                # A worker died hard (signal/OOM): everything not yet
                # collected is unaccounted for — retry it serially below.
                failed = [
                    (index, "BrokenProcessPool")
                    for index in range(len(specs))
                    if results[index] is None
                ]
    finally:
        _FORK_CONTEXT.clear()

    for index, reason in failed:
        obs_metrics.counter("sweep_runs_total", outcome="retried").inc()
        from repro.obs import runlog

        if runlog.active():  # pragma: no cover - depends on ambient run log
            runlog.emit("sweep_retry", index=index, reason=reason)
        # Serial retry in the parent, resuming from the crashed worker's
        # newest autosave when checkpoints are on. A failure here raises
        # for real — the sweep is genuinely broken, not just one worker.
        results[index] = _run_serial(
            specs[index],
            dataset,
            label=label,
            log_config=log_config,
            checkpoint_dir=checkpoint_dir,
            resume=resume or checkpoint_dir is not None,
        )
    return [result for result in results if result is not None]


__all__ = [
    "apply_engine_snapshot",
    "engine_snapshot",
    "fork_available",
    "run_specs",
]
