"""Workload ``shards4_ingest``: a 4-shard router serving beside live ingestion.

The default-profile city is split into four region shards with
``partition_grid``; each shard fits its own 0.99-quantile scaler and
trains its own checkpoint during set-up, and ``load_shard_services``
loads them behind one ``ShardRouter``. Two generator threads then drive
the router in-process:

- one calls ``ShardRouter.forecast`` with full-grid test windows on a
  seeded Poisson schedule;
- the other replays the test range's slots on a fixed schedule through one
  ``IngestionPipeline`` per shard, each with its own ``WindowStore`` and an
  attached ``DriftMonitor``, so every completed window is scored with a
  predict on the same service the forecasts use.

``update_scaler`` stays off: ``partial_fit`` refuses the quantile scalers
the shards use. Turning it on is a change of this benchmark of its own.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

import numpy as np

from perfbench import openloop, serving
from perfbench import spans as spanlib
from perfbench.common import (
    Result,
    SetupClock,
    counter_delta,
    engine_state,
    hit_ratio,
    mean,
    peak_rss_mb,
    percentile,
    program_counters,
)

SHARDS = 4
NOMINAL_RATE = 20.0  # forecasts/s, about half the saturation bursts' rate
LADDER = (25.0, 30.0, 40.0)  # forecasts/s
LIMIT_MS = 250.0
TAIL_PERCENTILE = 90.0  # two saturation bursts answer 120-210 forecasts: 12-21 lie beyond
# Live slots/s: a quarter of a core of ingest work beside the forecasts.
# At 10/s drift scoring took a third of the interpreter and made every
# forecast figure swing with the host's speed by half as much again.
INGEST_RATE = 4.0
WORKERS = 1  # forecast generator threads; the ingest generator is the second thread
SETUPS = 2  # each trains four shard models, so two keep a run within its time budget
WARM_FORECASTS = 10
INGEST_LAYERS = ["ingest.late", "ingest.extend", "ingest.score", "ingest.remainder"]


class Replay:
    """Feeds the test range's slots to one ingestion pipeline per shard.

    When the range is used up a new pass starts on fresh stores, as a
    restarted deployment would. Counts are kept per shard for the checks.
    """

    def __init__(self, router, slots: np.ndarray):
        self.router = router
        self.slots = slots
        self.recorder = None
        self.fed = 0
        self.fed_per_pass: List[int] = []
        self.appended = {region.name: 0 for region in router.regions}
        self.completed = {region.name: 0 for region in router.regions}
        self.scored = {region.name: 0 for region in router.regions}
        self.windows_scored = 0
        self._new_pass()

    def _new_pass(self) -> None:
        from repro.serve import DriftMonitor, IngestionPipeline
        from repro.store import WindowStore

        pipelines = {}
        for region in self.router.regions:
            service = self.router.services[region.name]
            store = WindowStore(service.history, service.horizon,
                                target_feature=service.target_feature,
                                scaler=service.scaler, normalize=False)
            pipelines[region.name] = IngestionPipeline(
                store, service=service, monitor=DriftMonitor(service, label=region.name),
                update_scaler=False, label=region.name,
            )
        self.pipelines = pipelines
        self.fed_per_pass.append(0)
        if self.recorder is not None:
            self._wrap()

    def trace(self, recorder: spanlib.Recorder) -> None:
        self.recorder = recorder
        self._wrap()

    def _wrap(self) -> None:
        for pipeline in self.pipelines.values():
            self.recorder.wrap(pipeline, "ingest", "ingest.ingest")
            self.recorder.wrap(pipeline.store, "extend", "ingest.extend")
            self.recorder.wrap(pipeline.monitor, "feed", "ingest.score")

    def feed_next(self) -> int:
        """Ingest the next slot into every shard; returns the windows scored."""
        if self.fed_per_pass[-1] == len(self.slots):
            self._new_pass()
        slot = self.slots[self.fed_per_pass[-1]][None]
        self.fed_per_pass[-1] += 1
        self.fed += 1
        scored = 0
        for region in self.router.regions:
            report = self.pipelines[region.name].ingest(region.slice_tensor(slot))
            self.appended[region.name] += report.appended_slots
            self.completed[region.name] += len(report.ready)
            done = sum(1 for ready in report.ready if ready.report is not None)
            self.scored[region.name] += done
            scored += done
        self.windows_scored += scored
        return scored

    def traffic(self, seconds: float) -> List[openloop.Outcome]:
        """Slots on a fixed schedule for ``seconds``, one generator thread."""
        recorder = self.recorder

        def ingest(_index: int) -> int:
            if recorder is None:
                return self.feed_next()
            with recorder.span("ingest.slot"):
                return self.feed_next()

        return openloop.run_open_loop(openloop.fixed_offsets(INGEST_RATE, seconds), ingest, 1)

    def expected_windows(self, history: int, horizon: int) -> int:
        return sum(max(0, fed - history - horizon + 1) for fed in self.fed_per_pass)


def decode(response) -> serving.Answer:
    return serving.Answer(
        demand=response.demand,
        degraded=response.degraded,
        tiers=[report.tier for report in response.shards],
        failed_shards=list(response.failed_shards),
    )


class Deployed:
    """One set-up: four trained shards behind a router, plus the replay source."""

    def __init__(self, work: str, index: int, tiny: bool, trace: bool):
        from repro.serve import ShardRouter, load_shard_services, partition_grid

        spec = serving.make_spec(tiny)
        tensor = serving.city_tensor(tiny)
        dataset = serving.make_dataset(tensor)
        regions = partition_grid(dataset.grid_shape, SHARDS)
        states, checkpoints = {}, {}
        for region in regions:
            shard = serving.make_dataset(region.slice_tensor(tensor))
            checkpoints[region.name] = serving.train(
                spec, shard, os.path.join(work, f"setup{index}-{region.name}"))
            states[region.name] = shard.scaler.state()
        services = load_shard_services(
            spec, regions, num_features=dataset.num_features, history=spec.history,
            horizon=spec.horizon, scaler_states=states, checkpoint_paths=checkpoints,
            warm_batch_sizes=(1,),
        )
        self.recorder = spanlib.Recorder() if trace else None
        self.router = ShardRouter(
            regions, services, max_batch=serving.MAX_BATCH,
            max_wait_seconds=serving.MAX_WAIT_SECONDS,
            clock=self.recorder.stamping_clock() if trace else time.monotonic,
        )
        self.spec = spec
        self.shape = (spec.horizon,) + tuple(dataset.grid_shape)
        self.raw, self.actual = serving.test_windows(dataset)
        test, store = dataset.test_view(), dataset.store
        self.replay = Replay(self.router, store.raw_slots(test.start, store.num_slots))
        for i in range(WARM_FORECASTS):
            self.router.forecast(self.raw[i % len(self.raw)])
        # Fill each shard's store to one slot short of a complete window, so
        # drift scoring competes with the forecasts in every timed phase,
        # the burst right after set-up included.
        for _ in range(spec.history + spec.horizon - 1):
            self.replay.feed_next()

    def phase(self, rate, seconds, seed_sequence) -> serving.Phase:
        router, raw, deadline = self.router, self.raw, LIMIT_MS / 1e3
        return serving.Phase(
            rate, seconds, seed_sequence, len(raw),
            lambda pick: router.forecast(raw[pick], deadline_seconds=deadline),
            decode, WORKERS, LIMIT_MS, alongside=self.replay.traffic,
        )

    def verify(self, phase: serving.Phase) -> None:
        serving.check_shape(phase, self.shape, SHARDS)

    def close(self) -> None:
        self.router.close()


def run(seconds: float, seed: int, trace: bool, tiny: bool, process_start: float) -> Result:
    from repro.nn import config as nn_config

    result = Result()
    work = os.getcwd()
    setups = SetupClock(process_start)
    streams = SETUPS + 1 + serving.LATE_BURSTS + len(LADDER)
    children = iter(np.random.SeedSequence(seed).spawn(streams))
    deployed, bursts, replays, grad_before_setup = None, [], [], []
    try:
        for index in range(SETUPS):
            if deployed is not None:
                deployed.close()
            setups.begin()
            # Concurrent shard batchers can leave the process-global autograd
            # flag off (a known defect, reported below and not fixed here);
            # training the next set-up's shards needs it on again.
            grad_before_setup.append(nn_config.grad_enabled())
            nn_config.set_grad_enabled(True)
            deployed = Deployed(work, index, tiny, trace)
            setups.end()
            replays.append(deployed.replay)
            if not trace:
                bursts.append(serving.saturation_burst(deployed, seconds, next(children)))
        if trace:
            _traced(result, deployed, seconds, next(children))
        else:
            nominal = serving.measure_untraced(result, deployed, bursts, NOMINAL_RATE, LADDER,
                                               TAIL_PERCENTILE, seconds, children)
            result.metrics["setup_s"] = setups.median
            result.metrics["peak_rss_mb"] = peak_rss_mb()
            result.report["ingest"] = _ingest_summary(nominal)
        result.report["grad_enabled_after_load"] = nn_config.grad_enabled()
        result.report["grad_enabled_before_each_setup"] = grad_before_setup
        result.report["setup_s_each"] = setups.durations
        result.report["engine"] = engine_state()
        _check_ingest(result, replays, deployed.spec)
    finally:
        if deployed is not None:
            deployed.close()
    return result


def _check_ingest(result: Result, replays: List[Replay], spec) -> None:
    for name, check in (
        ("ingest_slots_appended_equal_fed",
         lambda r: all(count == r.fed for count in r.appended.values())),
        ("ingest_windows_completed_as_expected",
         lambda r: all(count == r.expected_windows(spec.history, spec.horizon)
                       for count in r.completed.values())),
        ("ingest_windows_scored_equal_completed", lambda r: r.scored == r.completed),
    ):
        result.check(name, all(check(replay) for replay in replays))
    result.report["ingest_counts"] = [
        {
            "slots_fed": replay.fed,
            "passes": len(replay.fed_per_pass),
            "appended": replay.appended,
            "windows_expected_per_shard": replay.expected_windows(spec.history, spec.horizon),
            "windows_completed": replay.completed,
            "windows_scored": replay.scored,
        }
        for replay in replays
    ]


def _ingest_summary(phase: serving.Phase) -> Dict[str, float]:
    latencies = [o.latency * 1e3 for o in phase.side_outcomes]
    late = [o.lateness * 1e3 for o in phase.side_outcomes]
    return {
        "rate_per_s": INGEST_RATE,
        "slots": len(phase.side_outcomes),
        "ingest_p50_ms": percentile(latencies, 50.0),
        "ingest_p99_ms": percentile(latencies, 99.0),
        "late_max_ms": max(late, default=0.0),
    }


def _traced(result: Result, deployed: Deployed, seconds: float, seed_sequence) -> None:
    """The nominal rate untraced, then again traced; per-layer times from the second."""
    nominal_seconds, burst_seconds = 0.35 * seconds, 0.15 * seconds
    recorder = deployed.recorder
    untraced = deployed.phase(NOMINAL_RATE, nominal_seconds, seed_sequence)
    untraced_burst = deployed.phase(None, burst_seconds, seed_sequence)
    serving.wrap_router(recorder, deployed.router)
    deployed.replay.trace(recorder)
    scored_before = deployed.replay.windows_scored
    before = program_counters()
    traced = deployed.phase(NOMINAL_RATE, nominal_seconds, seed_sequence)
    delta = counter_delta(before, program_counters())
    scored = deployed.replay.windows_scored - scored_before
    traced_burst = deployed.phase(None, burst_seconds, seed_sequence)
    phases = [untraced, untraced_burst, traced, traced_burst]
    for phase in phases:
        deployed.verify(phase)
    serving.account(result, phases)

    spans = serving.during(recorder.spans, traced)
    costs = serving.route_costs(spans, recorder.stamp_owner)
    routes = sorted((s for s in spans if s[1] == "shard.route"), key=lambda s: s[2])
    ledgers, skews, unlinked = [], [], 0
    for outcome in traced.outcomes:
        inside = [r for r in routes if outcome.sent <= r[2] and r[3] <= outcome.done]
        if not outcome.ok or len(inside) != 1 or inside[0][0] not in costs:
            unlinked += 1
            continue
        route = inside[0]
        cost = costs[route[0]]
        ledger = spanlib.Ledger(outcome.done - outcome.due)
        # No HTTP here: everything outside the routed call is the generator's
        # lateness and the call itself.
        ledger.add("loadgen.late", (outcome.done - outcome.due) - (route[3] - route[2]))
        for layer, value in cost.ledger.layers.items():
            ledger.add(layer, value)
        ledgers.append(ledger)
        skews.append(cost.skew)

    tree = spanlib.Tree(spans)
    slot_spans = tree.named("ingest.slot")
    slot_ledgers = []
    for outcome, slot in zip(sorted(traced.side_outcomes, key=lambda o: o.sent), slot_spans):
        ledger = spanlib.Ledger(outcome.done - outcome.due)
        ledger.add("ingest.late", (outcome.done - outcome.due) - (slot[3] - slot[2]))
        ledger.charge_subtree(tree, slot[0], {"ingest.slot": "ingest.late",
                                              "ingest.ingest": "ingest.remainder"},
                              leaves=("ingest.extend", "ingest.score"))
        slot_ledgers.append(ledger)

    per_request = spanlib.summarize(ledgers, serving.REQUEST_LAYERS)
    for layer in serving.REQUEST_LAYERS:
        if layer != "gateway.remainder":
            result.metrics[f"{layer}_ms"] = per_request[layer]
    per_slot = spanlib.summarize(slot_ledgers, INGEST_LAYERS)
    for layer in INGEST_LAYERS:
        result.metrics[f"{layer}_ms"] = per_slot[layer]
    result.metrics["ingest.windows_scored"] = float(scored)
    result.metrics["batching.batch_size"] = mean(serving.batch_sizes(spans))
    result.metrics["shard.fanout_skew_ms"] = mean(skews) * 1e3
    result.metrics["service.fallbacks"] = delta["degradations"]
    result.metrics["nn.plan_cache_hit_ratio"] = hit_ratio(delta)
    overhead = serving.tracing_overhead(result, untraced_burst, traced_burst)
    overhead["nominal_p50_ms_untraced"] = percentile(untraced.latencies_ms(), 50.0)
    overhead["nominal_p50_ms_traced"] = percentile(traced.latencies_ms(), 50.0)
    result.metrics["trace.spans_recorded"] = float(len(recorder.spans))
    result.metrics["trace.spans_dropped"] = float(recorder.dropped)
    all_ledgers = ledgers + slot_ledgers
    result.check("trace_reconciles", spanlib.max_residual_ms(all_ledgers) < 1e-6
                 and not spanlib.unaccounted_layers(ledgers, serving.REQUEST_LAYERS)
                 and not spanlib.unaccounted_layers(slot_ledgers, INGEST_LAYERS))
    result.check("trace_every_request_linked", unlinked == 0 and len(ledgers) > 0)
    result.check("trace_one_ledger_per_slot",
                 len(slot_ledgers) == len(traced.side_outcomes) == len(slot_spans) > 0)
    result.check("trace_no_spans_dropped", recorder.dropped == 0)
    result.report["trace"] = {
        "spans_recorded": len(recorder.spans),
        "spans_dropped": recorder.dropped,
        "unit": "routed forecast (due time to return) and ingested slot (due time to last ingest)",
        "requests": len(ledgers),
        "slots": len(slot_ledgers),
        "unlinked": unlinked,
        "max_residual_ms": spanlib.max_residual_ms(all_ledgers),
        "mean_request_wall_ms": mean([l.wall for l in ledgers]) * 1e3,
        "mean_slot_wall_ms": mean([l.wall for l in slot_ledgers]) * 1e3,
        "ingest_untraced": _ingest_summary(untraced),
        "ingest_traced": _ingest_summary(traced),
        **overhead,
    }
    result.trace_recorder = recorder
