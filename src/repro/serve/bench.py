"""Closed-loop serving load generator: ``python -m repro.serve.bench``.

Builds a synthetic city behind a :class:`~repro.serve.shard.ShardRouter`
over ``--shards`` regions (default 1, the unsharded deployment) — the same
router the gateway runs: one service (primary model + persistence floor)
and one micro-batcher per region, each region with its own scaler — then
drives it with ``--clients`` closed-loop threads (each submits its next
request only after receiving the previous answer — the classic closed-loop
model, so offered load adapts to service speed instead of overrunning it).
Optional ``--fault-rate``/``--slow-ms``/``--deadline-ms`` inject failures
and deadline pressure into every shard's primary to measure the *degraded*
serving path, not just the happy one.

``--drift-samples`` replays ground truth through the drift monitor, and
``--adapt`` (with a nonzero ``--drift-shift``) appends a deterministic
regime-change replay through the full online-adaptation loop — drift
detection triggers a warm-start fine-tune, a shadow gate validates the
candidate, and an atomic hot-swap flips it in — then reports pre- vs
post-swap forecast error (``serve_adaptation_recovery_*`` gauges);
``--adapt-fault`` injects chaos (poisoned fine-tune / crash mid-swap) to
demonstrate the original model keeps serving. Both replays drive one
shard's service, so they need ``--shards 1``.

Writes ``results/BENCH_serve.json`` (``REPRO_BENCH_DIR`` overrides the
directory); field semantics are documented in docs/PERFORMANCE.md and the
snapshot diffs with ``scripts/bench_compare.py``, which fails on >20%
latency *or* throughput regressions.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from typing import List, Optional

import numpy as np

from repro import faults
from repro.obs import drift as obs_drift
from repro.obs import runlog, serve_metrics, tracing
from repro.obs.artifacts import atomic_write_json
from repro.obs.metrics import Histogram
from repro.pipeline.spec import RunSpec
from repro.serve.adapt import AdaptationController, AdaptationPolicy
from repro.serve.ingest import IngestionPipeline
from repro.serve.monitor import DriftMonitor, SloMonitor
from repro.serve.service import ForecastService, ServiceTier
from repro.serve.shard import demo_spec, synthetic_router
from repro.store import WindowStore


def _spec_from_args(args) -> RunSpec:
    """The one RunSpec every shard builds its primary from."""
    return demo_spec(
        args.model,
        history=args.history,
        horizon=args.horizon,
        epochs=args.epochs,
        seed=args.seed,
        hparams=json.loads(args.hparams) if args.hparams else None,
    )


def _inject_faults(service: ForecastService, args) -> None:
    """Wrap the primary tier with the CLI's latency/fault injectors."""
    primary = service.tiers[0]
    forecaster = primary.forecaster
    if args.slow_ms > 0:
        forecaster = faults.SlowForecaster(forecaster, args.slow_ms / 1e3)
    if args.fault_rate > 0:
        forecaster = faults.FaultInjectingForecaster(forecaster, args.fault_rate)
    service.tiers = (ServiceTier(primary.name, forecaster),) + service.tiers[1:]


def build_router(args) -> tuple:
    """Synthetic city → (router, full-grid dataset), injectors in place.

    With ``--epochs > 0`` each shard trains its own checkpoint through the
    pipeline funnel and reloads it exactly as a server would. The
    injectors wrap each primary after the plans are warmed, so warm-up
    never trips an injected fault.
    """
    router, dataset = synthetic_router(
        _spec_from_args(args),
        grid=args.grid,
        num_shards=args.shards,
        features=args.features,
        slots=args.slots,
        checkpoint_dir=os.path.join(args.out, "serve-bench-ckpt"),
        max_batch=args.max_batch,
        max_wait_seconds=args.max_wait_ms / 1e3,
    )
    for service in router.services.values():
        _inject_faults(service, args)
    return router, dataset


def run_load(router, raw_windows, args):
    """Drive the router closed-loop → (responses, elapsed, per-shard batch sizes)."""
    deadline = args.deadline_ms / 1e3 if args.deadline_ms is not None else None
    responses = []
    responses_lock = threading.Lock()
    errors = []
    barrier = threading.Barrier(args.clients + 1)
    per_client = args.requests // args.clients
    if per_client < 1:
        raise SystemExit("--requests must be >= --clients")

    def client(offset: int) -> None:
        barrier.wait()
        for i in range(per_client):
            window = raw_windows[(offset + i) % len(raw_windows)]
            try:
                response = router.forecast(window, deadline_seconds=deadline)
            except Exception as error:  # noqa: BLE001 - report, don't hang
                with responses_lock:
                    errors.append(error)
                return
            with responses_lock:
                responses.append(response)

    threads = [
        threading.Thread(target=client, args=(offset,), daemon=True)
        for offset in range(args.clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    began = time.monotonic()
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - began

    if errors:
        raise RuntimeError(f"{len(errors)} request(s) errored; first: {errors[0]!r}")
    # The router's batcher outlives one load (``--trace-overhead`` runs a
    # reference load first) and keeps only its newest batch sizes: report
    # the newest batches, counted back from the end until they hold every
    # request this load made.
    batch_sizes = {
        name: _newest_batches(sizes, len(responses))
        for name, sizes in router.batch_sizes.items()
    }
    return responses, elapsed, batch_sizes


def _newest_batches(sizes: List[int], requests: int) -> List[int]:
    """The newest of ``sizes`` that together answered ``requests`` requests."""
    answered, first = 0, len(sizes)
    while answered < requests and first > 0:
        first -= 1
        answered += sizes[first]
    return sizes[first:]


def drift_pass(service, dataset, args) -> DriftMonitor:
    """Live-ingestion ground-truth replay through the forecast-drift monitor.

    Replays the test range's raw slots one at a time through an
    :class:`IngestionPipeline` backed by a fresh serve-side
    :class:`~repro.store.WindowStore` — the same append path a live
    deployment runs. Each slot that completes a window yields that window
    plus its realized demand, which is scored by the drift monitor; the
    store is rebuilt and the slots replayed again until ``--drift-samples``
    errors have been scored. From the halfway point on, realized demand is
    scaled by ``1 + --drift-shift`` — a deterministic regime change, so a
    nonzero shift fires ``drift_detected`` exactly once (the detector
    re-baselines after firing and the shifted stream is stable thereafter).
    """
    monitor = DriftMonitor(service, label="serve-bench")
    store = dataset.store
    if store is None:
        raise ValueError("drift replay needs a store-backed dataset")
    test = dataset.test_view()
    first, total = test.start, store.num_slots
    shift_from = args.drift_samples // 2
    scored = 0
    while scored < args.drift_samples:
        live = WindowStore(
            store.history,
            store.horizon,
            target_feature=store.target_feature,
            scaler=service.scaler,
            normalize=False,
        )
        pipeline = IngestionPipeline(live, service=service, label="serve-bench")
        for slot in range(first, total):
            report = pipeline.ingest(store.raw_slots(slot, slot + 1))
            for ready in report.ready:
                actual = ready.actual
                if args.drift_shift and scored >= shift_from:
                    actual = actual * (1.0 + args.drift_shift)
                monitor.feed(ready.window, actual)
                scored += 1
                if scored >= args.drift_samples:
                    return monitor
    return monitor


def adapt_pass(service, dataset, spec, args) -> dict:
    """Deterministic regime change → drift → fine-tune → hot-swap, measured.

    Unlike :func:`drift_pass` (which shifts only the *scored* ground truth),
    this replay ingests genuinely shifted slots, so the shared store's
    freshest windows reflect the new regime — exactly what the
    :class:`AdaptationController` fine-tunes on. Phase one replays the test
    range unshifted to settle the detector baseline; phase two replays it
    scaled by ``1 + --drift-shift`` (cycling the range as needed) until
    ``--adapt-samples`` shifted windows have been scored. The controller
    runs inline (``background=False``) with an effectively infinite
    cooldown, so the replay performs exactly one fine-tune attempt; errors
    scored before the hot-swap vs. after it are the recovery measurement.

    ``--adapt-fault`` injects chaos through :mod:`repro.faults`:``fine-tune``
    poisons every fine-tune gradient step (recovery retries exhaust →
    ``adaptation_failed``), ``swap`` crashes inside the hot-swap critical
    section — in both cases the pre-swap model keeps answering and the
    recovery gauges are omitted (there was no recovery).
    """
    store = dataset.store
    if store is None:
        raise ValueError("adaptation replay needs a store-backed dataset")
    test = dataset.test_view()
    first, total = test.start, store.num_slots

    live = WindowStore(
        store.history,
        store.horizon,
        target_feature=store.target_feature,
        scaler=service.scaler,
        normalize=False,
    )
    monitor = DriftMonitor(service, label="serve-bench")
    policy = AdaptationPolicy(
        epochs=args.adapt_epochs,
        min_windows=4,
        max_windows=32,
        holdout_fraction=0.25,
        # One attempt per replay: the cooldown outlives any bench run.
        cooldown_seconds=1e9,
        lr=args.adapt_lr,
    )
    controller = AdaptationController(
        service,
        live,
        spec,
        label="serve-bench",
        background=False,
        policy=policy,
        warm_batch_sizes=(1, args.max_batch),
    )
    pipeline = IngestionPipeline(
        live, service=service, monitor=monitor, label="serve-bench",
        controller=controller,
    )

    base_generation = service.generation
    shift = 1.0 + args.drift_shift
    pre_errors: list = []
    post_errors: list = []

    def replay_once(shifted: bool, budget: int) -> int:
        scored = 0
        for slot in range(first, total):
            raw = store.raw_slots(slot, slot + 1)
            report = pipeline.ingest(raw * shift if shifted else raw)
            for ready in report.ready:
                if ready.report is None:
                    continue
                scored += 1
                if shifted:
                    if service.generation != base_generation:
                        post_errors.append(ready.report.error)
                    else:
                        pre_errors.append(ready.report.error)
                if scored >= budget:
                    return scored
        return scored

    def replay(shifted: bool, budget: int) -> int:
        # One pass over the test range yields only a handful of completed
        # windows; cycle it until the budget is met (the store just keeps
        # appending — same slots, ever-fresher windows).
        scored = 0
        while scored < budget:
            advanced = replay_once(shifted, budget - scored)
            if advanced == 0:
                break
            scored += advanced
        return scored

    plan = None
    if args.adapt_fault == "fine-tune":
        # Poison every optimizer step: recovery rolls back and retries, the
        # retry poisons again, and the policy exhausts — a fine-tune that
        # cannot converge, not one that merely hiccups.
        plan = faults.FaultPlan(grad_nan_at_step=1, grad_nan_times=10_000)
    elif args.adapt_fault == "swap":
        plan = faults.FaultPlan(crash_swap_at=1)

    context = faults.active(plan) if plan is not None else None
    try:
        if context is not None:
            context.__enter__()
        # The baseline phase must outlast the detector's warmup or the
        # shifted regime would be folded into the frozen baseline.
        baseline_budget = max(monitor.detector.warmup + 8, args.adapt_samples // 2)
        replay(shifted=False, budget=baseline_budget)
        replay(shifted=True, budget=args.adapt_samples)
    finally:
        if context is not None:
            context.__exit__(None, None, None)

    pre = float(np.mean(pre_errors)) if pre_errors else 0.0
    post = float(np.mean(post_errors)) if post_errors else 0.0
    improvement = 1.0 - post / pre if pre > 0 and post_errors else 0.0
    return {
        "pre_swap_error": pre,
        "post_swap_error": post,
        "improvement_fraction": improvement,
        "pre_samples": len(pre_errors),
        "post_samples": len(post_errors),
        "drift_events": len(monitor.detections),
        "fault": args.adapt_fault,
        "fault_fired": dict(plan.fired) if plan is not None else {},
        "status": controller.status(),
    }


def slo_pass(responses, args):
    """Replay the answered responses through the SLO budget tracker."""
    spec = obs_drift.SloSpec(
        p99_latency_seconds=args.slo_p99_ms / 1e3,
        window=max(len(responses), 1),
        # The bench scores one window over the whole run; a tiny run must
        # still yield a verdict rather than silently dropping the section.
        min_samples=max(1, min(20, len(responses))),
    )
    monitor = SloMonitor(spec, label="serve-bench", evaluate_every=len(responses) + 1)
    for response in responses:
        monitor.observe(response)
    return monitor.evaluate()


def summarize(responses, elapsed, batch_sizes, router, args) -> dict:
    """BENCH_serve.json payload: the gauges plus a per-shard breakdown."""
    latency = Histogram("client_latency")
    tier_counts = {region.name: {} for region in router.regions}
    failures = dict.fromkeys(tier_counts, 0)
    degraded = 0
    missed = 0
    for response in responses:
        latency.observe(response.latency_seconds)
        degraded += bool(response.degraded)
        missed += bool(response.deadline_missed)
        for report in response.shards:
            counts = tier_counts[report.shard]
            tier = report.tier or "<failed>"
            counts[tier] = counts.get(tier, 0) + 1
            failures[report.shard] += report.failed
    total = len(responses)
    stats = latency.summary()
    all_batches = [size for sizes in batch_sizes.values() for size in sizes]
    gauges = {
        "bench_serve_latency_mean_seconds": stats["mean"],
        "bench_serve_latency_min_seconds": stats["min"],
        "bench_serve_latency_p50_seconds": stats["p50"],
        "bench_serve_latency_p90_seconds": stats["p90"],
        "bench_serve_latency_p99_seconds": stats["p99"],
        "bench_serve_throughput_rps": total / elapsed if elapsed > 0 else 0.0,
        "bench_serve_degraded_fraction": degraded / total,
        "bench_serve_deadline_missed_fraction": missed / total,
        "bench_serve_batch_mean_size": float(np.mean(all_batches)) if all_batches else 0.0,
    }
    return {
        "config": {
            key: value for key, value in sorted(vars(args).items()) if key != "out"
        },
        "gauges": gauges,
        "requests": total,
        "elapsed_seconds": elapsed,
        "shards": {
            region.name: {
                **region.as_dict(),
                "tier_counts": dict(sorted(tier_counts[region.name].items())),
                "failures": failures[region.name],
                "batch_sizes": batch_sizes[region.name],
            }
            for region in router.regions
        },
    }


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", default="BikeCAP", help="primary tier (registry name)")
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--grid", type=int, nargs=2, default=(6, 6))
    parser.add_argument("--history", type=int, default=6)
    parser.add_argument("--horizon", type=int, default=3)
    parser.add_argument("--features", type=int, default=4)
    parser.add_argument("--slots", type=int, default=80, help="simulated time slots")
    parser.add_argument("--epochs", type=int, default=0, help=">0 trains + checkpoints first")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--hparams", default=None, help="JSON overrides for the primary")
    parser.add_argument(
        "--shards", type=int, default=1, help="region shards behind the router"
    )
    parser.add_argument("--max-batch", type=int, default=8)
    parser.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="cap on a batch's straggler wait after its first request; the "
        "wait ends sooner once every caller in flight has submitted",
    )
    parser.add_argument("--deadline-ms", type=float, default=None)
    parser.add_argument("--fault-rate", type=float, default=0.0)
    parser.add_argument("--slow-ms", type=float, default=0.0, help="primary-tier added latency")
    parser.add_argument(
        "--trace", action="store_true", help="record request-scoped traces during the load"
    )
    parser.add_argument(
        "--trace-overhead",
        action="store_true",
        help="run an untraced reference load first and report the throughput cost of tracing",
    )
    parser.add_argument(
        "--telemetry-port",
        type=int,
        default=None,
        help="serve live /metrics during the run (0 = ephemeral port)",
    )
    parser.add_argument(
        "--drift-samples",
        type=int,
        default=0,
        help=">0 replays this many ground-truth slots through the drift monitor",
    )
    parser.add_argument(
        "--drift-shift",
        type=float,
        default=0.0,
        help="scale realized demand by 1+shift for the second half of the drift replay",
    )
    parser.add_argument(
        "--adapt",
        action="store_true",
        help="after the load, replay a deterministic regime change through the "
        "online-adaptation loop (drift → fine-tune → shadow gate → hot-swap) "
        "and measure post-swap error recovery; needs a nonzero --drift-shift",
    )
    parser.add_argument(
        "--adapt-epochs", type=int, default=8, help="fine-tune epochs per adaptation"
    )
    parser.add_argument(
        "--adapt-lr",
        type=float,
        default=0.05,
        help="fine-tune learning rate (a regime change needs a more "
        "aggressive step than offline training)",
    )
    parser.add_argument(
        "--adapt-samples",
        type=int,
        default=60,
        help="shifted windows to score during the adaptation replay",
    )
    parser.add_argument(
        "--adapt-fault",
        choices=("none", "fine-tune", "swap"),
        default="none",
        help="inject chaos into the adaptation: poison every fine-tune gradient "
        "step, or crash inside the hot-swap critical section",
    )
    parser.add_argument("--slo-p99-ms", type=float, default=500.0, help="SLO latency target")
    parser.add_argument(
        "--out", default=os.environ.get("REPRO_BENCH_DIR", "results"), help="output directory"
    )
    args = parser.parse_args(argv)
    args.grid = tuple(args.grid)
    if args.trace_overhead:
        args.trace = True
    if args.adapt and not args.drift_shift:
        parser.error("--adapt needs a nonzero --drift-shift (the regime change)")
    if args.shards != 1 and (args.drift_samples > 0 or args.adapt):
        parser.error("--drift-samples and --adapt replay one shard: use --shards 1")

    router, dataset = build_router(args)
    raw_windows = dataset.test_view().raw_x()
    exporter = None
    if args.telemetry_port is not None:
        exporter = serve_metrics.start_exporter(port=args.telemetry_port)
        print(f"telemetry live at {exporter.url}/metrics")
    logger = runlog.start_run(
        "serve-bench",
        seed=args.seed,
        config={"bench": "serve", "spec_model": args.model, "shards": args.shards},
    )
    baseline_throughput = None
    drift_monitor = None
    slo_status = None
    adaptation = None
    try:
        with router:
            if args.trace_overhead:
                # Reference pass with recording off; the measured pass below
                # is identical except for the trace ring, so the throughput
                # delta *is* the tracing tax.
                reference, reference_elapsed, _ = run_load(router, raw_windows, args)
                if reference and reference_elapsed > 0:
                    baseline_throughput = len(reference) / reference_elapsed
            if args.trace:
                tracing.start_recording()
            responses, elapsed, batch_sizes = run_load(router, raw_windows, args)
            slo_status = slo_pass(responses, args)
            if args.drift_samples > 0 or args.adapt:
                # Both replays drive the one shard's service (--shards 1).
                (service,) = router.services.values()
                if args.drift_samples > 0:
                    drift_monitor = drift_pass(service, dataset, args)
                if args.adapt:
                    # After the latency measurement: the replay mutates the
                    # service (hot-swap) and must not contaminate the load
                    # numbers.
                    adaptation = adapt_pass(
                        service, dataset, _spec_from_args(args), args
                    )
    finally:
        if logger is not None:
            logger.close(status="ok")

    payload = summarize(responses, elapsed, batch_sizes, router, args)
    gauges = payload["gauges"]
    if baseline_throughput:
        overhead = max(0.0, 1.0 - gauges["bench_serve_throughput_rps"] / baseline_throughput)
        gauges["bench_serve_trace_overhead_fraction"] = overhead
    if slo_status is not None:
        payload["slo"] = slo_status.as_dict()
    if drift_monitor is not None:
        payload["drift"] = {
            "events": len(drift_monitor.detections),
            "samples": args.drift_samples,
            "shift": args.drift_shift,
        }
    if adaptation is not None:
        payload["adaptation"] = adaptation
        if adaptation["status"]["swapped"] and adaptation["post_samples"]:
            # Gated by scripts/bench_compare.py: the error gauges must not
            # creep up, the improvement fraction must not creep down.
            gauges["serve_adaptation_recovery_pre_swap_error"] = adaptation[
                "pre_swap_error"
            ]
            gauges["serve_adaptation_recovery_post_swap_error"] = adaptation[
                "post_swap_error"
            ]
            gauges["serve_adaptation_recovery_improvement_fraction"] = adaptation[
                "improvement_fraction"
            ]
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "BENCH_serve.json")
    atomic_write_json(path, payload, sort_keys=True)
    if args.trace:
        trace_path = tracing.dump_chrome_trace(os.path.join(args.out, "BENCH_serve.trace.json"))
        tracing.dump_jsonl(os.path.join(args.out, "BENCH_serve.trace.jsonl"))
        tracing.stop_recording()
        print(f"  trace  {trace_path} (load into Perfetto / chrome://tracing)")
    if exporter is not None:
        exporter.stop()

    gauges = payload["gauges"]
    tiers = {name: shard["tier_counts"] for name, shard in payload["shards"].items()}
    failed = sum(shard["failures"] for shard in payload["shards"].values())
    print(
        f"serve bench (router ×{args.shards}): "
        f"{payload['requests']} requests in {elapsed:.3f}s"
    )
    print(
        f"  throughput {gauges['bench_serve_throughput_rps']:8.1f} req/s   "
        f"mean batch {gauges['bench_serve_batch_mean_size']:.2f}"
    )
    print(
        f"  latency    p50 {gauges['bench_serve_latency_p50_seconds'] * 1e3:7.2f}ms   "
        f"p99 {gauges['bench_serve_latency_p99_seconds'] * 1e3:7.2f}ms"
    )
    print(
        f"  degraded   {gauges['bench_serve_degraded_fraction'] * 100:5.1f}%   "
        f"tiers {tiers}   shard failures {failed}"
    )
    if adaptation is not None:
        status = adaptation["status"]
        print(
            f"  adaptation triggered={status['triggered']} "
            f"swapped={status['swapped']} rejected={status['rejected']} "
            f"failed={status['failed']} generation={status['generation']}"
        )
        if status["swapped"] and adaptation["post_samples"]:
            print(
                f"  recovery   pre-swap err {adaptation['pre_swap_error']:.3f} → "
                f"post-swap err {adaptation['post_swap_error']:.3f} "
                f"({adaptation['improvement_fraction']:+.1%})"
            )
    print(f"  wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
