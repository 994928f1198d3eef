"""Workload ``gateway_1shard``: open-loop HTTP forecasts through a ForecastGateway.

The gateway runs in a child process (``perfbench/server.py``) over a
1-shard ``ShardRouter`` whose service holds the default-profile BikeCAP,
trained during set-up and loaded back from its checkpoint. This process
is the load generator: seeded Poisson arrivals of ``POST /forecast``, sent
by two threads over at most two connections. Request bodies carry raw test
windows, picked by the seed and encoded during set-up, and a
``deadline_ms`` equal to the workload's latency limit.

Every 200 answer must equal a direct ``predict`` of the same checkpoint on
the same window through the same scaler, exactly: the gateway promises an
exact JSON float round trip. The engine's plans depend on batch size, so an
answer the batcher coalesced with another request is compared with the
direct prediction of that same pair.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import subprocess
import sys
from typing import Dict, List, Sequence

import numpy as np

from perfbench import serving
from perfbench import spans as spanlib
from perfbench.common import Result, SetupClock, counter_delta, hit_ratio, mean, percentile

NOMINAL_RATE = 50.0  # requests/s, about half the saturation bursts' rate
LADDER = (60.0, 80.0, 100.0)  # requests/s
LIMIT_MS = 250.0
TAIL_PERCENTILE = 95.0  # two saturation bursts answer 400-580 requests: 20-29 lie beyond
WORKERS = 2  # threads, and so connections, of the load generator
SETUPS = 2  # each trains the served model, so two keep a run within its time budget
WARM_REQUESTS = 20
SERVER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "server.py")
REPLY_TIMEOUT_S = 120.0


class Server:
    """The child process running the gateway, driven over its stdin/stdout."""

    def __init__(self, config_path: str, trace: bool, cwd: str):
        command = [sys.executable, SERVER, config_path] + (["--trace"] if trace else [])
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=cwd
        )
        ready = self._read()
        self.port = ready["ready"]
        self.engine = ready["engine"]

    def _read(self) -> dict:
        readable, _, _ = select.select([self.process.stdout], [], [], REPLY_TIMEOUT_S)
        line = self.process.stdout.readline() if readable else ""
        if not line:
            raise RuntimeError("gateway server exited or stopped answering")
        return json.loads(line)

    def ask(self, command: str) -> dict:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        return self._read()

    def stop(self) -> None:
        try:
            if self.process.poll() is None:
                self.ask("stop")
                self.process.stdin.close()
                self.process.wait(timeout=30)
        finally:
            if self.process.poll() is None:
                self.process.kill()
            self.process.wait()
            self.process.stdout.close()


def post(port: int, body: bytes) -> bytes:
    """One ``POST /forecast`` on a fresh connection; the raw response body."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=serving.CLIENT_TIMEOUT_S)
    try:
        connection.request("POST", "/forecast", body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        data = response.read()
    finally:
        connection.close()
    if response.status != 200:
        raise RuntimeError(f"HTTP {response.status}: {data[:120]!r}")
    return data


def decode(body: bytes) -> serving.Answer:
    payload = json.loads(body)
    return serving.Answer(
        demand=np.asarray(payload["demand"], dtype=float),
        degraded=bool(payload["degraded"]),
        tiers=[shard["tier"] for shard in payload["shards"]],
        failed_shards=list(payload["failed_shards"]),
    )


class Served:
    """One set-up: trained checkpoint, encoded requests, running server."""

    def __init__(self, work: str, index: int, tiny: bool, trace: bool):
        self.spec = serving.make_spec(tiny)
        dataset = serving.make_dataset(serving.city_tensor(tiny))
        self.checkpoint = serving.train(self.spec, dataset, os.path.join(work, f"setup{index}"))
        self.grid = tuple(dataset.grid_shape)
        self.num_features = dataset.num_features
        self.target = dataset.target_feature
        self.scaler_state = {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                             for k, v in dataset.scaler.state().items()}
        config = {
            "spec": self.spec.to_dict(),
            "grid": list(self.grid),
            "shards": 1,
            "num_features": self.num_features,
            "scaler_states": {"shard0": self.scaler_state},
            "checkpoints": {"shard0": self.checkpoint},
        }
        config_path = os.path.join(work, f"server{index}.json")
        with open(config_path, "w") as handle:
            json.dump(config, handle)
        self.raw, self.actual = serving.test_windows(dataset)
        self.bodies = [serving.request_body(window, LIMIT_MS) for window in self.raw]
        self.fingerprints = [spanlib.fingerprint(window) for window in self.raw]
        self._oracle = None
        self.server = Server(config_path, trace, work)
        for i in range(WARM_REQUESTS):
            post(self.server.port, self.bodies[i % len(self.bodies)])

    def verify(self, phase: serving.Phase) -> None:
        """Compare answers with this set-up's checkpoint.

        Answers from an earlier set-up's server are checked against the
        last one, which also checks that training with a fixed seed
        reproduces the served model bit for bit.
        """
        self.oracle.verify(phase)

    @property
    def oracle(self) -> "Oracle":
        if self._oracle is None:
            self._oracle = Oracle(self)
        return self._oracle

    def phase(self, rate, seconds, seed_sequence) -> serving.Phase:
        port, bodies = self.server.port, self.bodies
        return serving.Phase(rate, seconds, seed_sequence, len(bodies),
                             lambda pick: post(port, bodies[pick]), decode, WORKERS, LIMIT_MS)


class Oracle:
    """Direct predictions of the served checkpoint, through the same scaler."""

    def __init__(self, served: Served):
        from repro.data.normalization import MinMaxScaler
        from repro.pipeline import load_forecaster, registry

        spec = served.spec
        geometry = dict(grid_shape=served.grid, num_features=served.num_features,
                        history=spec.history, horizon=spec.horizon)
        self.tiers = {
            spec.model: load_forecaster(spec, served.checkpoint, **geometry),
            "Persistence": registry.create("Persistence", spec.history, spec.horizon,
                                           served.grid, served.num_features),
        }
        self.scaler = MinMaxScaler.from_state(served.scaler_state)
        self.raw = served.raw
        self.target = served.target
        self.shape = (spec.horizon,) + served.grid
        self._cache: Dict[tuple, np.ndarray] = {}
        self.pair_fallbacks = 0

    def direct(self, tier: str, picks: tuple) -> np.ndarray:
        key = (tier, picks)
        if key not in self._cache:
            normalized = np.clip(self.scaler.transform(self.raw[list(picks)]), 0.0, None)
            predicted = np.asarray(self.tiers[tier].predict(normalized))
            self._cache[key] = np.stack([
                np.clip(self.scaler.inverse_transform(row, feature=self.target), 0.0, None)
                for row in predicted
            ])
        return self._cache[key]

    def matches(self, pick: int, tier: str, demand: np.ndarray, neighbours: Sequence[int]) -> bool:
        """Exact match with the direct prediction at the batch size and row it was served at.

        A row's arithmetic depends on the batch size and its position, not on
        the other row's values, so a batch of two is first compared with the
        window paired with itself; the pairs with each overlapping request
        are the fallback.
        """
        if tier not in self.tiers:
            return False
        if np.array_equal(demand, self.direct(tier, (pick,))[0]):
            return True
        doubled = self.direct(tier, (pick, pick))
        if np.array_equal(demand, doubled[0]) or np.array_equal(demand, doubled[1]):
            return True
        self.pair_fallbacks += 1
        for other in neighbours:
            if np.array_equal(demand, self.direct(tier, (pick, other))[0]):
                return True
            if np.array_equal(demand, self.direct(tier, (other, pick))[1]):
                return True
        return False

    def verify(self, phase: serving.Phase) -> None:
        """Every answer must equal the direct prediction for its own batch."""
        serving.check_shape(phase, self.shape, 1)
        by_sent = sorted(phase.outcomes, key=lambda o: o.sent)
        for position, outcome in enumerate(by_sent):
            if not outcome.ok or outcome.index in phase.wrong:
                continue
            neighbours = [
                phase.pick(other)
                for other in by_sent[max(0, position - 2): position + 3]
                if other is not outcome and other.sent < outcome.done and outcome.sent < other.done
            ]
            if not self.matches(phase.pick(outcome), outcome.value.tiers[0],
                                outcome.value.demand, neighbours):
                phase.wrong.add(outcome.index)


def run(seconds: float, seed: int, trace: bool, tiny: bool, process_start: float) -> Result:
    result = Result()
    work = os.getcwd()
    setups = SetupClock(process_start)
    streams = SETUPS + 1 + serving.LATE_BURSTS + len(LADDER)
    children = iter(np.random.SeedSequence(seed).spawn(streams))
    served, bursts = None, []
    try:
        for index in range(SETUPS):
            if served is not None:
                served.server.stop()
            setups.begin()
            served = Served(work, index, tiny, trace)
            setups.end()
            if not trace:
                bursts.append(serving.saturation_burst(served, seconds, next(children)))
        if trace:
            _traced(result, served, seconds, next(children))
        else:
            serving.measure_untraced(result, served, bursts, NOMINAL_RATE, LADDER,
                                     TAIL_PERCENTILE, seconds, children)
            report = served.server.ask("report")
            result.metrics["setup_s"] = setups.median
            result.metrics["peak_rss_mb"] = report["peak_rss_mb"]
            result.report["grad_enabled_after_load"] = report["grad_enabled"]
            result.report["batch_size_counts"] = _counts(report["batch_sizes"])
            result.report["oracle_pair_fallbacks"] = served.oracle.pair_fallbacks
        result.report["setup_s_each"] = setups.durations
        result.report["request_body_bytes"] = mean([len(b) for b in served.bodies])
        result.report["server_engine"] = served.server.engine
    finally:
        if served is not None:
            served.server.stop()
    return result


def _counts(batch_sizes: Dict[str, List[int]]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for sizes in batch_sizes.values():
        for size in sizes:
            counts[str(size)] = counts.get(str(size), 0) + 1
    return counts


def _traced(result: Result, served: Served, seconds: float, seed_sequence) -> None:
    """The nominal rate untraced, then again traced; per-layer times from the second."""
    nominal_seconds, burst_seconds = 0.35 * seconds, 0.15 * seconds
    untraced = served.phase(NOMINAL_RATE, nominal_seconds, seed_sequence)
    untraced_burst = served.phase(None, burst_seconds, seed_sequence)
    served.server.ask("trace")
    before = served.server.ask("counters")
    traced = served.phase(NOMINAL_RATE, nominal_seconds, seed_sequence)
    after = served.server.ask("counters")
    traced_burst = served.phase(None, burst_seconds, seed_sequence)
    report = served.server.ask("report")
    phases = [untraced, untraced_burst, traced, traced_burst]
    for phase in phases:
        served.verify(phase)
    serving.account(result, phases)

    recorded = [tuple(span) for span in report["spans"]]
    spans = serving.during(recorded, traced)
    stamps = {float(stamp): int(owner) for stamp, owner in report["stamps"]}
    costs = serving.route_costs(spans, stamps)
    routes: Dict[int, list] = {}
    for span in spans:
        if span[1] == "shard.route":
            routes.setdefault(span[5]["window"], []).append(span)
    ledgers, skews, unlinked = [], [], 0
    # Requests for the same window can overlap; taking them in order of
    # completion, each gets the earliest-ending routed call inside it.
    for outcome in sorted(traced.outcomes, key=lambda o: o.done):
        window = served.fingerprints[traced.pick(outcome)]
        candidates = [r for r in routes.get(window, [])
                      if outcome.sent <= r[2] and r[3] <= outcome.done and r[0] in costs]
        if not outcome.ok or not candidates:
            unlinked += 1
            continue
        route = min(candidates, key=lambda r: r[3])
        routes[window].remove(route)
        cost = costs[route[0]]
        ledger = spanlib.Ledger(outcome.done - outcome.due)
        ledger.add("loadgen.late", outcome.sent - outcome.due)
        ledger.add("gateway.remainder", (outcome.done - outcome.sent) - (route[3] - route[2]))
        for layer, value in cost.ledger.layers.items():
            ledger.add(layer, value)
        ledgers.append(ledger)
        skews.append(cost.skew)

    per_request = spanlib.summarize(ledgers, serving.REQUEST_LAYERS)
    for layer in serving.REQUEST_LAYERS:
        result.metrics[f"{layer}_ms"] = per_request[layer]
    delta = counter_delta(before, after)
    result.metrics["batching.batch_size"] = mean(serving.batch_sizes(spans))
    result.metrics["shard.fanout_skew_ms"] = mean(skews) * 1e3
    result.metrics["service.fallbacks"] = delta["degradations"]
    result.metrics["nn.plan_cache_hit_ratio"] = hit_ratio(delta)
    overhead = serving.tracing_overhead(result, untraced_burst, traced_burst)
    overhead["nominal_p50_ms_untraced"] = percentile(untraced.latencies_ms(), 50.0)
    overhead["nominal_p50_ms_traced"] = percentile(traced.latencies_ms(), 50.0)
    recorded = len(recorded) + len(traced.outcomes) + len(traced_burst.outcomes)
    result.metrics["trace.spans_recorded"] = float(recorded)
    result.metrics["trace.spans_dropped"] = float(report["dropped"])
    result.check("trace_reconciles", spanlib.max_residual_ms(ledgers) < 1e-6
                 and not spanlib.unaccounted_layers(ledgers, serving.REQUEST_LAYERS))
    result.check("trace_every_request_linked", unlinked == 0 and len(ledgers) > 0)
    result.check("trace_no_spans_dropped", report["dropped"] == 0)
    result.report["grad_enabled_after_load"] = report["grad_enabled"]
    result.report["trace"] = {
        "spans_recorded": recorded,
        "spans_dropped": report["dropped"],
        "unit": "HTTP request, due time to full response",
        "units": len(ledgers),
        "unlinked": unlinked,
        "max_residual_ms": spanlib.max_residual_ms(ledgers),
        "mean_request_wall_ms": mean([l.wall for l in ledgers]) * 1e3,
        **overhead,
    }
    dump = spanlib.Recorder()
    for span in report["spans"]:
        dump.add(tuple(span))
    for outcome in traced.outcomes:
        dump.add((0, "loadgen.request", outcome.sent, outcome.done, 0,
                  {"due": outcome.due, "window": served.fingerprints[traced.pick(outcome)]}))
    result.trace_recorder = dump
