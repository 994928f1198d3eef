"""Serving-path observability under concurrency.

Pins the acceptance behaviors of the tracing/telemetry work: request spans
that cross the MicroBatcher's thread hand-off, tier-retry spans parented to
the *request* that failed, a live ``/metrics`` scrape while client threads
are in flight, and multi-writer run logs staying valid JSONL.
"""

import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.obs import tracing
from repro.obs.runlog import RunLogger, read_events
from repro.obs.serve_metrics import start_exporter
from repro.faults import SlowForecaster
from repro.serve import ForecastService, MicroBatcher

from .conftest import ConstantForecaster, ThresholdFaultForecaster


def _service(ds, tiers):
    return ForecastService(
        tiers,
        ds.scaler,
        history=ds.history,
        horizon=ds.horizon,
        grid_shape=ds.grid_shape,
        num_features=ds.num_features,
        target_feature=ds.target_feature,
    )


@pytest.fixture
def recording():
    tracing.start_recording()
    yield tracing.get_tracer()
    tracing.stop_recording()
    tracing.reset()


class TestTracePropagation:
    def test_request_spans_cross_the_batcher_hand_off(
        self, serve_dataset, raw_windows, recording
    ):
        """A degraded request's tier-retry spans parent to ITS request span.

        The request span starts on the client thread, inference happens on
        the batcher worker; the poisoned window's failed retry must link
        back to the poisoned request, not to a batchmate.
        """
        ds = serve_dataset
        service = _service(
            ds,
            [
                ("Primary", ThresholdFaultForecaster(ConstantForecaster(ds.horizon, 0.5))),
                ("Floor", ConstantForecaster(ds.horizon, 0.1)),
            ],
        )
        windows = [np.array(raw_windows[i]) for i in range(4)]
        # Push one window far past the scaler's fitted max: it normalizes
        # > 1.5 and deterministically poisons only that request.
        windows[2] = windows[2] + 10_000.0

        with MicroBatcher(service, max_batch=4, max_wait_seconds=0.05) as batcher:
            futures = [batcher.submit(window) for window in windows]
            responses = [future.result(timeout=10) for future in futures]

        assert [response.tier for response in responses] == [
            "Primary", "Primary", "Floor", "Primary",
        ]

        records = tracing.recent()
        requests = [r for r in records if r["name"] == "serve.request"]
        assert len(requests) == 4
        # Each submission is its own trace.
        assert len({r["trace_id"] for r in requests}) == 4

        degraded = [r for r in requests if r["attributes"].get("degraded")]
        assert len(degraded) == 1
        (poisoned,) = degraded
        assert poisoned["attributes"]["tier"] == "Floor"

        # The primary's failed per-window retry nests under the poisoned
        # request's span — across the client->worker thread hand-off.
        retries = [r for r in records if r["name"] == "serve.tier.retry"]
        failed = [r for r in retries if r["status"] == "error"]
        assert len(failed) == 1
        assert failed[0]["parent_id"] == poisoned["span_id"]
        assert failed[0]["trace_id"] == poisoned["trace_id"]
        assert failed[0]["thread"] != "MainThread"

        # Healthy batchmates' retries (the batched pass failed as a whole)
        # each link to their own request.
        ok_parents = {r["parent_id"] for r in retries if r["status"] == "ok"}
        ok_request_ids = {
            r["span_id"] for r in requests if not r["attributes"].get("degraded")
        }
        assert ok_parents == ok_request_ids

    def test_chrome_export_nests_retry_under_request(
        self, serve_dataset, raw_windows, recording
    ):
        ds = serve_dataset
        service = _service(
            ds,
            [
                ("Primary", ThresholdFaultForecaster(ConstantForecaster(ds.horizon, 0.5))),
                ("Floor", ConstantForecaster(ds.horizon, 0.1)),
            ],
        )
        poisoned = np.array(raw_windows[0]) + 10_000.0
        with MicroBatcher(service, max_batch=2, max_wait_seconds=0.0) as batcher:
            batcher.forecast(poisoned)

        payload = tracing.chrome_trace()
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        request = next(e for e in spans if e["name"] == "serve.request")
        retry = next(e for e in spans if e["name"] == "serve.tier.retry")
        # Same synthetic track + time containment = visual nesting in
        # Perfetto; the parent link survives in args.
        assert retry["tid"] == request["tid"]
        assert retry["args"]["parent_id"] == request["args"]["span_id"]
        assert request["ts"] <= retry["ts"]
        assert request["ts"] + request["dur"] >= retry["ts"] + retry["dur"]

    def test_recording_off_leaves_no_records(self, serve_dataset, raw_windows):
        ds = serve_dataset
        service = _service(ds, [("Primary", ConstantForecaster(ds.horizon, 0.5))])
        with MicroBatcher(service, max_batch=2) as batcher:
            batcher.forecast(raw_windows[0])
        assert tracing.recent() == []


class TestLiveScrapeDuringLoad:
    def test_metrics_scrape_while_clients_are_in_flight(
        self, serve_dataset, raw_windows
    ):
        ds = serve_dataset
        primary = SlowForecaster(ConstantForecaster(ds.horizon, 0.5), 0.005)
        service = _service(ds, [("Primary", primary)])
        server = start_exporter(port=0)
        scrapes = []
        try:
            with MicroBatcher(service, max_batch=4, max_wait_seconds=0.001) as batcher:
                started = threading.Barrier(3)

                def client():
                    started.wait()
                    for index in range(20):
                        batcher.forecast(raw_windows[index % len(raw_windows)])

                threads = [threading.Thread(target=client) for _ in range(2)]
                for thread in threads:
                    thread.start()
                started.wait()
                # ~40 requests x 5ms of injected latency: keep scraping
                # while the load is in flight.
                mid_flight = 0
                while any(thread.is_alive() for thread in threads):
                    with urllib.request.urlopen(
                        server.url + "/metrics", timeout=5
                    ) as response:
                        scrapes.append((response.status, response.read().decode()))
                    mid_flight += 1
                for thread in threads:
                    thread.join()
                # One more after the load so the counters are settled.
                with urllib.request.urlopen(
                    server.url + "/metrics", timeout=5
                ) as response:
                    scrapes.append((response.status, response.read().decode()))
        finally:
            server.stop()
        assert mid_flight > 0
        assert all(status == 200 for status, _body in scrapes)
        final = scrapes[-1][1]
        assert "serve_requests_total" in final
        assert "serve_microbatch_coalesced" in final


class TestRunLogConcurrency:
    def test_parallel_emitters_produce_valid_jsonl(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        logger = RunLogger(path, seed=1).open()
        writers, per_writer = 8, 50

        def emit(worker: int):
            for index in range(per_writer):
                logger.event("tick", worker=worker, index=index)

        threads = [threading.Thread(target=emit, args=(i,)) for i in range(writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        logger.close()

        # Every line parses on its own: no torn/interleaved writes.
        with open(path) as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
        assert len(lines) == writers * per_writer + 2
        ticks = [line for line in lines if line["event"] == "tick"]
        assert len(ticks) == writers * per_writer
        seen = {(line["worker"], line["index"]) for line in ticks}
        assert len(seen) == writers * per_writer

    def test_emit_racing_close_drops_instead_of_crashing(self, tmp_path):
        logger = RunLogger(str(tmp_path / "race.jsonl")).open()
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                try:
                    logger.event("tick")
                except RuntimeError:
                    return  # is_open flipped first: also acceptable

        thread = threading.Thread(target=hammer)
        thread.start()
        logger.close()
        stop.set()
        thread.join(timeout=5)
        events = read_events(logger.path)
        assert events[-1]["event"] == "run_end"

    def test_no_event_lands_after_run_end(self, tmp_path, monkeypatch):
        """run_end stays the last line even when a writer races a slow close."""
        from repro.obs import runlog

        class _SlowActive(list):
            def remove(self, item):
                time.sleep(0.001)  # widen close() for the racing writer
                super().remove(item)

        monkeypatch.setattr(runlog, "_ACTIVE", _SlowActive())
        for attempt in range(5):
            logger = RunLogger(str(tmp_path / f"race{attempt}.jsonl")).open()
            stop = threading.Event()

            def hammer():
                while not stop.is_set():
                    logger.event("tick")

            thread = threading.Thread(target=hammer)
            thread.start()
            logger.close()
            stop.set()
            thread.join(timeout=5)
            assert not thread.is_alive()
            assert read_events(logger.path)[-1]["event"] == "run_end"
