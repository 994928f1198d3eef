"""DriftMonitor / SloMonitor: service glue around the obs.drift leaf."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.obs import metrics as obs_metrics
from repro.obs import tracing
from repro.obs.drift import DriftDetector, SloSpec
from repro.obs.runlog import RunLogger, read_events
from repro.serve import DriftMonitor, ForecastService, SloMonitor

from .conftest import ConstantForecaster


def _service(ds):
    return ForecastService(
        [("Primary", ConstantForecaster(ds.horizon, 0.5))],
        ds.scaler,
        history=ds.history,
        horizon=ds.horizon,
        grid_shape=ds.grid_shape,
        num_features=ds.num_features,
        target_feature=ds.target_feature,
    )


class TestDriftMonitor:
    def test_feed_scores_mean_absolute_error(self, serve_dataset, raw_windows):
        service = _service(serve_dataset)
        base = service.predict_one(raw_windows[0]).demand
        monitor = DriftMonitor(service, label="feed-test")
        report = monitor.feed(raw_windows[0], base + 1.25)
        assert report.error == pytest.approx(1.25)
        assert report.samples == 1

    def test_feed_without_service_raises(self):
        monitor = DriftMonitor()
        with pytest.raises(RuntimeError, match="needs a service"):
            monitor.feed(np.zeros(1), np.zeros(1))

    def test_feed_rejects_shape_mismatch(self, serve_dataset, raw_windows):
        monitor = DriftMonitor(_service(serve_dataset))
        bad = np.zeros((serve_dataset.horizon + 1,) + serve_dataset.grid_shape)
        with pytest.raises(ValueError, match="shape"):
            monitor.feed(raw_windows[0], bad)

    def test_observe_error_publishes_gauges(self):
        monitor = DriftMonitor(detector=DriftDetector(warmup=4), label="gauge-test")
        for _ in range(6):
            monitor.observe_error(2.0)
        assert obs_metrics.gauge("forecast_error_ewma", service="gauge-test").value == (
            pytest.approx(2.0)
        )
        assert obs_metrics.gauge("forecast_drift_score", service="gauge-test").value == 0.0

    def test_sustained_shift_emits_exactly_one_runlog_event(
        self, serve_dataset, raw_windows, tmp_path
    ):
        service = _service(serve_dataset)
        base = service.predict_one(raw_windows[0]).demand
        monitor = DriftMonitor(
            service, detector=DriftDetector(warmup=8), label="drift-test"
        )
        logger = RunLogger(str(tmp_path / "drift.jsonl"), seed=0).open()
        try:
            for _ in range(16):
                monitor.feed(raw_windows[0], base + 1.0)
            fired = [
                monitor.feed(raw_windows[0], base + 4.0).drifted for _ in range(40)
            ]
        finally:
            logger.close()
        assert sum(fired) == 1
        assert len(monitor.detections) == 1
        events = [e for e in read_events(logger.path) if e["event"] == "drift_detected"]
        assert len(events) == 1
        (event,) = events
        assert event["service"] == "drift-test"
        assert event["tier"] == "Primary"
        assert event["baseline"] == pytest.approx(1.0)
        assert event["trace_id"] is None  # nothing records
        counter = obs_metrics.counter("forecast_drift_events_total", service="drift-test")
        assert counter.value == 1.0

    def test_drift_event_names_the_feed_trace(self, serve_dataset, raw_windows, tmp_path):
        """``feed`` opens one ``serve.drift`` span around the predict and the
        scoring: the service's ``serve.batch`` span nests under it, and the
        ``drift_detected`` event names its trace."""
        service = _service(serve_dataset)
        base = service.predict_one(raw_windows[0]).demand
        monitor = DriftMonitor(
            service, detector=DriftDetector(warmup=8), label="drift-trace-test"
        )
        with RunLogger(str(tmp_path / "drift.jsonl")) as logger:
            tracing.start_recording()
            try:
                for _ in range(16):
                    monitor.feed(raw_windows[0], base + 1.0)
                for _ in range(40):
                    if monitor.feed(raw_windows[0], base + 4.0).drifted:
                        break
                records = tracing.recent()
            finally:
                tracing.stop_recording()
                tracing.reset()
        (event,) = [e for e in read_events(logger.path) if e["event"] == "drift_detected"]
        assert event["trace_id"] is not None
        in_trace = [r for r in records if r["trace_id"] == event["trace_id"]]
        (drift,) = [r for r in in_trace if r["name"] == "serve.drift"]
        (batch,) = [r for r in in_trace if r["name"] == "serve.batch"]
        assert drift["parent_id"] is None
        assert batch["parent_id"] == drift["span_id"]


def _response(latency=0.01, missed=False, degraded=False):
    return SimpleNamespace(
        latency_seconds=latency, deadline_missed=missed, degraded=degraded
    )


class TestSloMonitor:
    def test_evaluates_on_cadence(self):
        monitor = SloMonitor(SloSpec(min_samples=1), label="cadence", evaluate_every=4)
        results = [monitor.observe(_response()) for _ in range(8)]
        evaluated = [status is not None for status in results]
        assert evaluated == [False, False, False, True, False, False, False, True]

    def test_evaluate_every_validation(self):
        with pytest.raises(ValueError):
            SloMonitor(evaluate_every=0)

    def test_sustained_breach_is_one_event(self, tmp_path):
        spec = SloSpec(p99_latency_seconds=0.05, min_samples=4)
        monitor = SloMonitor(spec, label="burn-test", evaluate_every=4)
        logger = RunLogger(str(tmp_path / "slo.jsonl")).open()
        try:
            for _ in range(16):
                monitor.observe(_response(latency=0.5))
        finally:
            logger.close()
        assert monitor.burn_events == 1
        events = [e for e in read_events(logger.path) if e["event"] == "slo_burn"]
        assert len(events) == 1
        assert events[0]["breaches"] == ["p99_latency"]
        assert obs_metrics.counter("slo_burn_events_total", service="burn-test").value == 1.0

    def test_breach_set_change_retriggers(self):
        spec = SloSpec(p99_latency_seconds=0.05, degraded_budget=0.1, min_samples=4)
        monitor = SloMonitor(spec, label="retrigger", evaluate_every=4)
        for _ in range(8):
            monitor.observe(_response(latency=0.5))
        assert monitor.burn_events == 1
        # A second objective starts burning: the breach set changed.
        for _ in range(8):
            monitor.observe(_response(latency=0.5, degraded=True))
        assert monitor.burn_events == 2

    def test_healthy_stream_publishes_gauges_without_events(self):
        monitor = SloMonitor(SloSpec(min_samples=1), label="healthy", evaluate_every=2)
        for _ in range(4):
            monitor.observe(_response(latency=0.01))
        assert monitor.burn_events == 0
        gauge = obs_metrics.gauge("slo_p99_latency_seconds", service="healthy")
        assert gauge.value == pytest.approx(0.01)
        assert obs_metrics.gauge("slo_latency_burn", service="healthy").value == (
            pytest.approx(0.02)
        )


class TestTierExclusion:
    """Only model-tier errors update the drift detector (ISSUE 10 sat. 1)."""

    def test_fallback_tier_error_is_counted_not_detected(self, serve_dataset):
        monitor = DriftMonitor(_service(serve_dataset), label="excl-basic")
        report = monitor.observe_error(5.0, tier="Floor")
        assert monitor.excluded_samples == 1
        assert monitor.detector.samples == 0  # detector untouched
        assert report.error == 5.0
        assert not report.drifted
        counter = obs_metrics.counter(
            "forecast_drift_excluded_total", service="excl-basic", tier="Floor"
        )
        assert counter.value == 1.0
        # The primary's errors do feed the detector.
        monitor.observe_error(5.0, tier="Primary")
        assert monitor.detector.samples == 1
        assert monitor.excluded_samples == 1

    def test_excluded_sample_reports_current_score_unchanged(self, serve_dataset):
        monitor = DriftMonitor(
            _service(serve_dataset),
            detector=DriftDetector(warmup=4),
            label="excl-score",
        )
        for _ in range(6):
            monitor.observe_error(1.0, tier="Primary")
        armed_samples = monitor.detector.samples
        # A catastrophic fallback error passes through without inflating
        # the EWMA: the score it reports is the detector's current one.
        report = monitor.observe_error(100.0, tier="Floor")
        assert monitor.detector.samples == armed_samples
        assert report.score == pytest.approx(0.0)
        assert report.ewma == pytest.approx(1.0)
        assert not report.drifted

    def test_model_tiers_pins_the_inclusion_set(self):
        monitor = DriftMonitor(model_tiers=("BikeCAP",), label="excl-pin")
        assert monitor.includes("BikeCAP")
        assert not monitor.includes("Persistence")
        assert monitor.includes(None)  # bare observe_error is always model

    def test_hot_swap_rename_keeps_the_primary_included(self, serve_dataset):
        from tests.serve.conftest import ConstantForecaster as Constant

        service = _service(serve_dataset)
        monitor = DriftMonitor(service, label="excl-swap")
        assert monitor.includes("Primary")
        service.swap_primary(
            Constant(serve_dataset.horizon, 0.4), name="Primary-v2"
        )
        assert monitor.includes("Primary-v2")
        assert not monitor.includes("Primary")

    def test_no_ewma_gauge_before_the_detector_is_fed(self, serve_dataset):
        monitor = DriftMonitor(_service(serve_dataset), label="excl-fresh")
        monitor.observe_error(3.0, tier="Floor")  # excluded: EWMA still None
        # The gauge must not have been set: publishing 0.0 for an unfed
        # EWMA would be indistinguishable from a true zero-error stream.
        gauge = obs_metrics.gauge("forecast_error_ewma", service="excl-fresh")
        assert gauge.value == 0.0

    def test_degraded_answer_in_feed_is_excluded(self, serve_dataset, raw_windows):
        from repro.serve import ForecastService
        from tests.serve.conftest import ConstantForecaster as Constant
        from tests.serve.conftest import FailingForecaster

        ds = serve_dataset
        service = ForecastService(
            [("Primary", FailingForecaster()), ("Floor", Constant(ds.horizon, 0.1))],
            ds.scaler,
            history=ds.history,
            horizon=ds.horizon,
            grid_shape=ds.grid_shape,
            num_features=ds.num_features,
            target_feature=ds.target_feature,
        )
        monitor = DriftMonitor(service, label="excl-degraded")
        report = monitor.feed(raw_windows[0], np.zeros((ds.horizon,) + ds.grid_shape))
        # The Floor answered — an operational hiccup, not model drift.
        assert monitor.excluded_samples == 1
        assert monitor.detector.samples == 0
        assert not report.drifted
