"""Online monitors: forecast-error drift and SLO budgets for a service.

The :mod:`repro.obs.drift` leaf computes *whether* something shifted; this
module is the glue that feeds it from a live :class:`ForecastService` and
publishes the verdicts — ``forecast_drift_score`` gauges,
``drift_detected`` / ``slo_burn`` run-log events, counters — so the rest
of the stack (dashboards scraping :mod:`repro.obs.serve_metrics`, and the
online-adaptation loop's fine-tune trigger in :mod:`repro.serve.adapt`)
sees them without knowing the detector math.

Typical loop, as each held-out slot's ground truth arrives::

    monitor = DriftMonitor(service)
    report = monitor.feed(window, actual_demand)   # predict, score, emit
    if report.drifted:
        ...  # schedule a warm-start fine-tune

``DriftMonitor.feed`` answers through the service's normal degradation
chain (so the error stream reflects what callers actually received) and
scores the mean absolute error of the returned multi-step demand against
the realized demand.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.obs import drift as obs_drift
from repro.obs import metrics as obs_metrics
from repro.obs import runlog, tracing
from repro.serve.service import ForecastResponse, ForecastService


class DriftMonitor:
    """Rolling forecast-error drift tracking for one service.

    Only *model-tier* errors update the drift detector: an answer produced
    by a degraded fallback (persistence after a latency demotion, say)
    carries that tier's error profile, not the model's, and feeding it to
    the detector makes an operational hiccup masquerade as model drift.
    ``model_tiers`` pins which tiers count as the model; by default the
    service's primary tier does (every tier when no service is attached,
    matching bare ``observe_error`` use). Excluded samples are still
    visible — the ``forecast_drift_score`` gauge is labelled by tier and
    ``forecast_drift_excluded_total`` counts what the detector skipped —
    they just cannot trigger a fine-tune.
    """

    def __init__(
        self,
        service: Optional[ForecastService] = None,
        detector: Optional[obs_drift.DriftDetector] = None,
        label: str = "service",
        model_tiers: Optional[Sequence[str]] = None,
    ):
        self.service = service
        self.detector = detector or obs_drift.DriftDetector()
        self.label = label
        self.model_tiers = tuple(model_tiers) if model_tiers is not None else None
        self.excluded_samples = 0

    @property
    def detections(self):
        return self.detector.detections

    def includes(self, tier: Optional[str]) -> bool:
        """Whether a tier's errors feed the drift detector."""
        if tier is None:
            return True
        if self.model_tiers is not None:
            return tier in self.model_tiers
        if self.service is not None:
            # The primary is read dynamically so a hot-swap that renames
            # the tier keeps the monitor honest without reconfiguration.
            return tier == self.service.tiers[0].name
        return True

    def feed(self, window: np.ndarray, actual: np.ndarray) -> obs_drift.DriftReport:
        """Predict one raw window, score it against realized demand.

        ``actual`` is the raw ``(p, G1, G2)`` demand that materialized for
        the window's horizon; the error fed to the detector is the mean
        absolute error over all horizon steps and cells. One ``serve.drift``
        span covers the predict and the scoring, so the service's
        ``serve.batch`` span and any ``drift_detected`` event share its trace.
        """
        if self.service is None:
            raise RuntimeError("DriftMonitor.feed needs a service; use observe_error otherwise")
        with tracing.span("serve.drift", service=self.label):
            response = self.service.predict_one(window)
            actual = np.asarray(actual, dtype=float)
            if actual.shape != response.demand.shape:
                raise ValueError(
                    f"actual demand shape {actual.shape} does not match "
                    f"forecast shape {response.demand.shape}"
                )
            error = float(np.mean(np.abs(response.demand - actual)))
            return self.observe_error(error, tier=response.tier)

    def observe_error(self, error: float, tier: Optional[str] = None) -> obs_drift.DriftReport:
        """Feed one precomputed forecast error; publishes score + events.

        Non-model tiers (see :meth:`includes`) are counted and labelled but
        never update the detector: the returned report carries the
        detector's *current* score, unchanged and never drifted.
        """
        tier_label = tier if tier is not None else "model"
        if not self.includes(tier):
            self.excluded_samples += 1
            obs_metrics.counter(
                "forecast_drift_excluded_total", service=self.label, tier=tier_label
            ).inc()
            detector = self.detector
            ewma = detector.ewma.value
            score = 0.0
            if detector.baseline is not None and ewma is not None:
                score = max(0.0, ewma / detector.baseline - 1.0)
            return obs_drift.DriftReport(
                error=float(error),
                score=score,
                drifted=False,
                baseline=detector.baseline,
                ewma=ewma,
                samples=detector.samples,
            )
        report = self.detector.update(error)
        obs_metrics.gauge(
            "forecast_drift_score", service=self.label, tier=tier_label
        ).set(report.score)
        # Unlabelled back-compat gauge: the score of the model-error stream.
        obs_metrics.gauge("forecast_drift_score", service=self.label).set(report.score)
        if report.ewma is not None:
            # Publishing 0.0 while the EWMA is still unfed would be
            # indistinguishable from a true zero-error stream.
            obs_metrics.gauge("forecast_error_ewma", service=self.label).set(report.ewma)
        if report.drifted:
            obs_metrics.counter("forecast_drift_events_total", service=self.label).inc()
            # The enclosing trace (feed's serve.drift span) while tracing
            # records; None otherwise.
            context = tracing.current_context()
            runlog.emit(
                "drift_detected",
                service=self.label,
                detector=report.detector,
                score=report.score,
                error=report.error,
                baseline=report.baseline,
                ewma=report.ewma,
                sample=report.samples,
                tier=tier,
                trace_id=context.trace_id if context else None,
            )
        return report


class SloMonitor:
    """Rolling SLO accounting over :class:`ForecastResponse` streams."""

    def __init__(
        self,
        spec: Optional[obs_drift.SloSpec] = None,
        label: str = "service",
        evaluate_every: int = 32,
    ):
        if evaluate_every < 1:
            raise ValueError(f"evaluate_every must be >= 1, got {evaluate_every}")
        self.tracker = obs_drift.SloTracker(spec)
        self.label = label
        self.evaluate_every = int(evaluate_every)
        self.burn_events = 0
        self._last_breaches: tuple = ()

    def observe(self, response: ForecastResponse) -> Optional[obs_drift.SloStatus]:
        """Track one answered request; evaluates every ``evaluate_every``."""
        self.tracker.observe(
            response.latency_seconds,
            deadline_missed=response.deadline_missed,
            degraded=response.degraded,
        )
        if self.tracker.total % self.evaluate_every == 0:
            return self.evaluate()
        return None

    def evaluate(self) -> Optional[obs_drift.SloStatus]:
        """Score the window now; publish gauges and edge-triggered events.

        A ``slo_burn`` run-log event fires when the breach set *changes*
        (new objective starts burning), not on every evaluation, so a
        sustained breach is one event rather than a flood.
        """
        status = self.tracker.status()
        if status is None:
            return None
        gauge = obs_metrics.gauge
        gauge("slo_p99_latency_seconds", service=self.label).set(status.p99_latency_seconds)
        gauge("slo_deadline_miss_fraction", service=self.label).set(
            status.deadline_miss_fraction
        )
        gauge("slo_degraded_fraction", service=self.label).set(status.degraded_fraction)
        gauge("slo_latency_burn", service=self.label).set(status.latency_burn)
        gauge("slo_deadline_miss_burn", service=self.label).set(status.deadline_miss_burn)
        gauge("slo_degraded_burn", service=self.label).set(status.degraded_burn)
        breaches = tuple(status.breaches)
        if breaches and breaches != self._last_breaches:
            self.burn_events += 1
            obs_metrics.counter("slo_burn_events_total", service=self.label).inc()
            runlog.emit("slo_burn", service=self.label, **status.as_dict())
        self._last_breaches = breaches
        return status


__all__ = ["DriftMonitor", "SloMonitor"]
