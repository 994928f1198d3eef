"""What both serving workloads share: the served model, its requests, spans and ledgers.

The served model is the default-profile BikeCAP (8×8 city, h=8, p=6, the
profile's hyperparameters, 0.99-quantile scaler), trained during set-up
through ``runner.execute`` with a checkpoint and loaded back with
``load_shard_services``, exactly as a deployment would.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench import openloop
from perfbench import spans as spanlib
from perfbench.common import Result, percentile

HISTORY = 8
HORIZON = 6
QUANTILE = 0.99
MODEL_SEED = 0
TRAIN_EPOCHS = 1
MAX_BATCH = 8  # ShardRouter defaults
MAX_WAIT_SECONDS = 0.002
WARM_BATCH_SIZES = (1, 2)  # at most two requests are ever in flight per shard
CLIENT_TIMEOUT_S = 30.0
TINY_HPARAMS = {"pyramid_size": 2, "capsule_dim": 2, "future_capsule_dim": 2,
                "decoder_hidden": 2, "loss": "mse", "lr": 3e-3}

REQUEST_LAYERS = [
    "loadgen.late",
    "gateway.remainder",
    "shard.route",
    "batching.queue_wait",
    "service.normalize",
    "service.forward",
    "service.denormalize",
    "service.remainder",
    "core.pyramid_conv",
    "core.capsules",
    "core.routing",
    "core.decoder",
    "core.forward_remainder",
]
RENAME = {"service.predict_batch": "service.remainder", "core.forward": "core.forward_remainder"}


def city_tensor(tiny: bool) -> np.ndarray:
    from repro.city.simulator import simulate_city
    from repro.data.aggregation import aggregate_city
    from repro.experiments.profiles import PROFILES

    city = PROFILES["default"].city
    if tiny:
        city = dataclasses.replace(city, rows=4, cols=4, days=3, num_commuters=300,
                                   num_bikes=120, num_lines=2)
    return aggregate_city(simulate_city(city))


def make_spec(tiny: bool):
    from repro.experiments.profiles import PROFILES
    from repro.pipeline import RunSpec

    hparams = dict(PROFILES["default"].model_overrides["BikeCAP"])
    hparams.pop("epochs", None)
    return RunSpec(
        model="BikeCAP",
        history=HISTORY,
        horizon=HORIZON,
        epochs=TRAIN_EPOCHS,
        seed=MODEL_SEED,
        hparams=TINY_HPARAMS if tiny else hparams,
    )


def make_dataset(tensor: np.ndarray):
    from repro.data.datasets import dataset_from_tensor

    return dataset_from_tensor(tensor, history=HISTORY, horizon=HORIZON,
                               normalization_quantile=QUANTILE)


def train(spec, dataset, directory: str) -> str:
    """Train through the pipeline funnel; return the autosaved checkpoint."""
    from repro.pipeline import runner

    return runner.execute(spec, dataset, checkpoint_dir=directory).checkpoint_path


def test_windows(dataset) -> Tuple[np.ndarray, np.ndarray]:
    """Raw test windows ``(N, h, G1, G2, F)`` and their realized demand ``(N, p, G1, G2)``."""
    view = dataset.test_view()
    store = dataset.store
    raw = view.raw_x()
    actual = np.stack([
        store.raw_slots(i + store.history, i + store.history + store.horizon)[
            ..., store.target_feature]
        for i in range(view.start, view.stop)
    ])
    return raw, actual


def request_body(window: np.ndarray, deadline_ms: float) -> bytes:
    return json.dumps({"window": window.tolist(), "deadline_ms": deadline_ms}).encode("utf-8")


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def wrap_router(recorder: spanlib.Recorder, router) -> None:
    """Spans on a router, its services, their scalers, tier forecasters and models."""
    recorder.wrap_route(router)
    for service in router.services.values():
        recorder.wrap(service, "predict_batch", "service.predict_batch", spanlib.batch_attributes)
        recorder.wrap(service.scaler, "transform", "service.normalize")
        recorder.wrap(service.scaler, "inverse_transform", "service.denormalize")
        for tier in service.tiers:
            recorder.wrap(tier.forecaster, "predict", "service.forward")
            model = getattr(tier.forecaster, "model", None)
            if model is not None and hasattr(model, "historical"):
                spanlib.wrap_core(recorder, model)


@dataclasses.dataclass
class RouteCost:
    """One routed request's ledger plus its fan-out skew."""

    ledger: spanlib.Ledger
    skew: float  # slowest minus fastest shard completion (s)


def route_costs(spans: Sequence, stamp_owner: Dict[float, int]) -> Dict[int, RouteCost]:
    """Ledgers of every traced ``ShardRouter.forecast`` call, keyed by its span id.

    A shard's batch is linked to the request through the start stamp the
    router's clock took at submission. When a request fans out to several
    shards, the ledger follows the shard that finished last (the one the
    request waited for); the others show up as ``shard.fanout_skew``.
    """
    tree = spanlib.Tree(spans)
    parts: Dict[int, List[Tuple[object, float]]] = defaultdict(list)
    for batch in tree.named("service.predict_batch"):
        starts = (batch[5] or {}).get("starts")
        if starts is None:
            continue  # a drift-scoring predict, not a routed request
        for stamp in starts:
            owner = stamp_owner.get(stamp)
            if owner is not None:
                parts[owner].append((batch, stamp))
    costs: Dict[int, RouteCost] = {}
    for route in tree.named("shard.route"):
        linked = parts.get(route[0])
        if not linked:
            continue
        batch, stamp = max(linked, key=lambda part: part[0][3])
        ledger = spanlib.Ledger(route[3] - route[2])
        inside = spanlib.covered((route[2], route[3]), [(stamp, batch[3])])
        ledger.add("shard.route", (route[3] - route[2]) - inside)
        ledger.add("batching.queue_wait", batch[2] - stamp)
        ledger.charge_subtree(tree, batch[0], RENAME)
        ends = [part[0][3] for part in linked]
        costs[route[0]] = RouteCost(ledger, max(ends) - min(ends))
    return costs


def batch_sizes(spans: Sequence) -> List[int]:
    """Requests per ``predict_batch`` call from a batcher (drift scoring excluded)."""
    return [
        span[5]["size"]
        for span in spans
        if span[1] == "service.predict_batch" and span[5] and span[5].get("starts") is not None
    ]


# ----------------------------------------------------------------------
# Traffic
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Answer:
    """A served forecast as the caller received it."""

    demand: np.ndarray  # (p, G1, G2) raw demand
    degraded: bool
    tiers: List[Optional[str]]  # per shard
    failed_shards: List[str]


class Phase:
    """Traffic at one rate and what came back.

    With ``rate`` set, requests arrive on a seeded Poisson schedule (open
    loop); with ``rate=None`` the phase is the closed-loop saturation probe.
    ``send(pick)`` sends one request for test window ``pick``; ``decode``
    turns its return value into an :class:`Answer` once the traffic is over.
    ``alongside(seconds)``, when given, runs in a second thread for the same
    time and returns its own outcomes (live ingestion).
    """

    def __init__(self, rate: Optional[float], seconds: float, seed_sequence, choices: int,
                 send: Callable[[int], Any], decode: Callable[[Any], Answer], workers: int,
                 limit_ms: float, alongside: Optional[Callable[[float], list]] = None):
        rng = np.random.default_rng(seed_sequence)
        self.rate, self.seconds, self.limit_ms = rate, seconds, limit_ms
        if rate is None:
            self.picks = rng.integers(0, choices, size=4096)
        else:
            offsets = openloop.poisson_offsets(rate, seconds, rng)
            self.picks = rng.integers(0, choices, size=len(offsets))
        picks = self.picks
        side: Dict[str, list] = {"outcomes": []}
        helper = None
        if alongside is not None:
            helper = threading.Thread(
                target=lambda: side.__setitem__("outcomes", alongside(seconds)),
                name="perfbench-alongside",
            )
            helper.start()

        def request(index: int):
            return send(int(picks[index % len(picks)]))

        if rate is None:
            self.outcomes = openloop.run_closed_loop(seconds, request, workers)
            self.scheduled = len(self.outcomes)
        else:
            self.outcomes = openloop.run_open_loop(offsets, request, workers)
            self.scheduled = len(offsets)
        if helper is not None:
            helper.join()
        self.side_outcomes: List[openloop.Outcome] = side["outcomes"]
        for outcome in self.outcomes:
            if outcome.ok:
                outcome.value = decode(outcome.value)
        self.wrong: set = set()

    def pick(self, outcome: openloop.Outcome) -> int:
        return int(self.picks[outcome.index % len(self.picks)])

    def correct(self, outcome: openloop.Outcome) -> bool:
        return outcome.ok and outcome.index not in self.wrong

    @property
    def degraded(self) -> int:
        return sum(1 for o in self.outcomes if o.ok and o.value.degraded)

    @property
    def achieved_rate(self) -> float:
        """Correct answers per second of measured traffic."""
        if not self.outcomes:
            return 0.0
        elapsed = max(o.done for o in self.outcomes) - min(o.sent for o in self.outcomes)
        return sum(1 for o in self.outcomes if self.correct(o)) / elapsed

    def report(self) -> openloop.RateReport:
        return openloop.summarize_rate(
            self.rate if self.rate is not None else self.achieved_rate, self.seconds,
            self.outcomes, self.limit_ms, is_degraded=lambda o: o.value.degraded,
            is_correct=self.correct,
        )

    def latencies_ms(self) -> List[float]:
        """Latency from due time; a failed or wrong answer counts as the client timeout."""
        return [o.latency * 1e3 if self.correct(o) else CLIENT_TIMEOUT_S * 1e3
                for o in self.outcomes]



def check_shape(phase: Phase, shape: Tuple[int, ...], shards: int) -> None:
    """Mark answers that are not finite, miss part of the grid, or lost a shard."""
    for o in phase.outcomes:
        if o.ok and (o.value.demand.shape != shape or not np.all(np.isfinite(o.value.demand))
                     or o.value.failed_shards or len(o.value.tiers) != shards):
            phase.wrong.add(o.index)


def account(result: Result, phases: Sequence[Phase]) -> None:
    """Attempted and failed operations over every phase; a wrong answer is a failure."""
    sent = sum(len(p.outcomes) + len(p.side_outcomes) for p in phases)
    attempted = sum(p.scheduled for p in phases) + sum(len(p.side_outcomes) for p in phases)
    failed = sum(1 for p in phases for o in p.outcomes if not p.correct(o))
    failed += sum(1 for p in phases for o in p.side_outcomes if not o.ok)
    result.attempted = attempted
    result.failed = failed + (attempted - sent)
    result.check("every_scheduled_operation_ran", sent == attempted)
    result.check("no_failed_operations", all(o.ok for p in phases
                                             for o in list(p.outcomes) + p.side_outcomes))
    result.check("answers_correct", not any(p.wrong for p in phases))


NOMINAL_SHARE = 0.3  # of --seconds: the open-loop nominal rate
BURST_SHARE = 0.1  # of --seconds: each saturation burst
RUNG_SHARE = 0.1  # of --seconds: each ladder rate
LATE_BURSTS = 4  # saturation bursts after the set-ups, between the open-loop phases
# Bursts pooled for the gated latencies: those with the lowest median. One
# burst alone leaves about ten samples beyond the tail percentile; two
# double that, and two of six still leave out bursts that fell in a slow
# spell of the host.
FASTEST_BURSTS = 2


def saturation_burst(deployment, seconds: float, seed_sequence) -> Phase:
    """A short closed-loop burst: every generator connection kept busy."""
    return deployment.phase(None, BURST_SHARE * seconds, seed_sequence)


def measure_untraced(result: Result, deployment, bursts: Sequence[Phase], nominal_rate: float,
                     ladder: Sequence[float], tail: float, seconds: float,
                     children) -> Phase:
    """The nominal rate and the ladder, with saturation bursts in between.

    End-to-end latency and throughput come from the saturation bursts: one
    after each set-up (``bursts``) and ``LATE_BURSTS`` spread over the rest
    of the run, so they sample the shared host at moments tens of seconds
    apart and one slow spell of the machine does not decide the figure.
    Latency is the median and the ``tail`` percentile of the
    ``FASTEST_BURSTS`` bursts with the lowest median, pooled; throughput is
    the best burst's. The open-loop results at the nominal rate and on the
    ladder (which stops at the first rate not sustained) are reported beside
    them. Returns the nominal phase.
    """
    bursts = list(bursts)
    nominal = deployment.phase(nominal_rate, NOMINAL_SHARE * seconds, next(children))
    rungs: List[Phase] = []
    for index in range(LATE_BURSTS):
        bursts.append(saturation_burst(deployment, seconds, next(children)))
        sustained = all(rung.report().sustained for rung in rungs)
        if index < len(ladder) and sustained:
            rungs.append(deployment.phase(ladder[index], RUNG_SHARE * seconds, next(children)))
    phases = bursts + [nominal] + rungs
    for phase in phases:
        deployment.verify(phase)
    account(result, phases)
    burst_latencies = [burst.latencies_ms() for burst in bursts]
    fastest = sorted(burst_latencies, key=lambda l: percentile(l, 50.0))[:FASTEST_BURSTS]
    pooled = [latency for l in fastest for latency in l]
    rung_reports = [rung.report() for rung in rungs]
    result.metrics.update({
        "latency_p50_ms": percentile(pooled, 50.0),
        "latency_tail_ms": percentile(pooled, tail),
        "throughput_per_s": max(burst.achieved_rate for burst in bursts),
        "model_error": served_mae(phases, deployment.actual),
    })
    attempted = max(result.attempted, 1)
    result.report.update({
        "latency_tail_percentile": tail,
        "latency_samples": len(pooled),
        "latency_limit_ms": nominal.limit_ms,
        "saturation_bursts": [
            {"completed_per_s": burst.achieved_rate, "requests": len(burst.outcomes),
             "p50_ms": percentile(l, 50.0), f"p{tail:g}_ms": percentile(l, tail)}
            for burst, l in zip(bursts, burst_latencies)
        ],
        "nominal": nominal.report().as_dict(),
        "ladder": [rung.as_dict() for rung in rung_reports],
        "sustained_rps": openloop.sustained_rate(rung_reports),
        "served_mae": result.metrics["model_error"],
        "degraded_fraction": sum(p.degraded for p in phases) / attempted,
        "failed_fraction": result.failed / attempted,
    })
    return nominal


def served_mae(phases: Sequence[Phase], actual: np.ndarray) -> float:
    """Mean absolute error of served demand against realized demand.

    Averaged first over the answers for each test window, then over the
    windows served, so the figure does not depend on how often the seeded
    picks happened to repeat a busy or a quiet window.
    """
    per_window: Dict[int, List[float]] = defaultdict(list)
    for phase in phases:
        for o in phase.outcomes:
            if o.ok:
                pick = phase.pick(o)
                per_window[pick].append(float(np.mean(np.abs(o.value.demand - actual[pick]))))
    if not per_window:
        return float("nan")
    return float(np.mean([np.mean(errors) for errors in per_window.values()]))


def tracing_overhead(result: Result, untraced: Phase, traced: Phase) -> Dict[str, float]:
    """Tracing overhead on ``latency_p50_ms``: a saturation burst, untraced then traced.

    A saturated closed loop shows what the wrappers add to service time; an
    open-loop rate near capacity would amplify it through queueing.
    """
    p50_untraced = percentile(untraced.latencies_ms(), 50.0)
    p50_traced = percentile(traced.latencies_ms(), 50.0)
    result.metrics["trace.overhead_pct"] = (p50_traced - p50_untraced) / p50_untraced * 100.0
    return {"burst_p50_ms_untraced": p50_untraced, "burst_p50_ms_traced": p50_traced}


def during(spans: Sequence, phase: Phase) -> List:
    """The spans that started while ``phase`` was sending traffic."""
    outcomes = list(phase.outcomes) + phase.side_outcomes
    first = min(o.sent for o in outcomes)
    last = max(o.done for o in outcomes)
    return [span for span in spans if first <= span[2] <= last]
