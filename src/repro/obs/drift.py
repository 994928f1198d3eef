"""Forecast-error drift detection and SLO budget tracking (pure leaf).

A static checkpoint degrades silently as the demand distribution moves;
this module is the *detector* half of the online-adaptation loop
(:mod:`repro.serve.adapt`): feed it the service's forecast errors as
held-out slots arrive and it says — deterministically — when the error
level has shifted enough to warrant a warm-start fine-tune.

Two detectors share :class:`DriftDetector`:

- an **EWMA** of the error stream compared against the frozen warm-up
  baseline (the *drift score*: fractional error inflation, 0 when healthy);
- a **Page–Hinkley** test on the same stream — the classic sequential
  change-point statistic: cumulative deviation of each sample from the
  running mean (minus a drift allowance ``delta``), fired when the
  statistic exceeds ``threshold``.

A detection *re-arms* the detector by re-baselining on the post-shift
stream, so one sustained shift fires exactly once instead of once per
sample.

:class:`SloTracker` is the latency half: rolling windows of request
latency / deadline misses / degradations scored against explicit
objectives, with error-budget burn rates (observed bad fraction ÷ budget).

Layering: this file is a dependency-free leaf — stdlib only, no ``repro``
imports (enforced by ``scripts/check_layering.py``) — so any layer can
embed a detector. Wiring detections into run logs and metrics lives in
:mod:`repro.serve.monitor`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional


class Ewma:
    """Exponentially weighted moving average; ``value`` is None until fed."""

    def __init__(self, alpha: float = 0.2):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = float(alpha)
        self.value: Optional[float] = None

    def update(self, x: float) -> float:
        x = float(x)
        if self.value is None:
            self.value = x
        else:
            self.value = self.alpha * x + (1.0 - self.alpha) * self.value
        return self.value

    def reset(self) -> None:
        self.value = None


class PageHinkley:
    """Page–Hinkley test for an upward mean shift in a stream.

    Maintains ``m_t = sum_i (x_i - mean_i - delta)`` and its running
    minimum; the statistic is ``m_t - min(m_t)`` and :meth:`update` returns
    True once it exceeds ``threshold`` (after ``min_samples``).
    """

    def __init__(self, delta: float = 0.005, threshold: float = 0.5, min_samples: int = 10):
        if threshold <= 0:
            raise ValueError(f"threshold must be > 0, got {threshold}")
        self.delta = float(delta)
        self.threshold = float(threshold)
        self.min_samples = int(min_samples)
        self.reset()

    def reset(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._cumulative = 0.0
        self._minimum = 0.0

    @property
    def statistic(self) -> float:
        return self._cumulative - self._minimum

    def update(self, x: float) -> bool:
        x = float(x)
        self._count += 1
        self._mean += (x - self._mean) / self._count
        self._cumulative += x - self._mean - self.delta
        self._minimum = min(self._minimum, self._cumulative)
        return self._count >= self.min_samples and self.statistic > self.threshold


@dataclass
class DriftReport:
    """One :meth:`DriftDetector.update` outcome."""

    error: float
    score: float  # fractional EWMA inflation over the baseline (>= 0)
    drifted: bool  # True exactly when this sample fired a detection
    detector: Optional[str] = None  # "ewma" | "page_hinkley" when fired
    baseline: Optional[float] = None
    ewma: Optional[float] = None
    samples: int = 0


class DriftDetector:
    """EWMA-vs-baseline plus Page–Hinkley over a forecast-error stream.

    The first ``warmup`` samples freeze the baseline (their mean); after
    that each sample updates both detectors and fires when either trips:
    the EWMA path when the smoothed error exceeds ``baseline * (1 +
    score_threshold)``, the Page–Hinkley path on its cumulative statistic.
    After a detection the detector re-baselines (new warm-up on the
    post-shift stream), so a single sustained shift is a single event.
    """

    def __init__(
        self,
        warmup: int = 16,
        ewma_alpha: float = 0.2,
        score_threshold: float = 0.5,
        ph_delta: Optional[float] = None,
        ph_threshold: Optional[float] = None,
        min_baseline: float = 1e-9,
    ):
        if warmup < 2:
            raise ValueError(f"warmup must be >= 2, got {warmup}")
        self.warmup = int(warmup)
        self.score_threshold = float(score_threshold)
        self.min_baseline = float(min_baseline)
        self._ewma_alpha = float(ewma_alpha)
        self._ph_delta = ph_delta
        self._ph_threshold = ph_threshold
        self.detections: List[Dict] = []
        self._rearm()

    def _rearm(self) -> None:
        self._warmup_values: List[float] = []
        self.baseline: Optional[float] = None
        self.ewma = Ewma(self._ewma_alpha)
        self._ph: Optional[PageHinkley] = None
        self.samples = 0

    def _arm(self) -> None:
        baseline = sum(self._warmup_values) / len(self._warmup_values)
        self.baseline = max(baseline, self.min_baseline)
        # Page–Hinkley scales with the error magnitude: allow ``delta`` of
        # slack per sample and fire after a sustained ~one-baseline excess.
        delta = self._ph_delta if self._ph_delta is not None else 0.05 * self.baseline
        threshold = (
            self._ph_threshold
            if self._ph_threshold is not None
            else max(2.0 * self.baseline, 10.0 * self.min_baseline)
        )
        self._ph = PageHinkley(delta=delta, threshold=threshold, min_samples=2)

    def update(self, error: float) -> DriftReport:
        """Feed one forecast error; returns score + whether drift fired."""
        error = float(error)
        if not math.isfinite(error):
            raise ValueError(f"forecast error must be finite, got {error}")
        self.samples += 1
        if self.baseline is None:
            self._warmup_values.append(error)
            self.ewma.update(error)
            if len(self._warmup_values) >= self.warmup:
                self._arm()
            return DriftReport(
                error=error, score=0.0, drifted=False, ewma=self.ewma.value,
                samples=self.samples,
            )

        smoothed = self.ewma.update(error)
        score = max(0.0, smoothed / self.baseline - 1.0)
        fired_ph = self._ph.update(error)
        fired_ewma = score > self.score_threshold
        drifted = fired_ewma or fired_ph
        report = DriftReport(
            error=error,
            score=score,
            drifted=drifted,
            detector="ewma" if fired_ewma else ("page_hinkley" if fired_ph else None),
            baseline=self.baseline,
            ewma=smoothed,
            samples=self.samples,
        )
        if drifted:
            self.detections.append(
                {
                    "sample": self.samples,
                    "detector": report.detector,
                    "score": score,
                    "baseline": self.baseline,
                    "ewma": smoothed,
                }
            )
            self._rearm()
        return report


# ----------------------------------------------------------------------
# SLO budgets.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SloSpec:
    """Serving objectives scored over a rolling window of requests."""

    p99_latency_seconds: float = 0.5
    deadline_miss_budget: float = 0.01  # tolerated fraction of misses
    degraded_budget: float = 0.05  # tolerated fraction of degraded answers
    window: int = 256  # requests per rolling window
    min_samples: int = 20  # below this, no verdicts are issued


@dataclass
class SloStatus:
    """One evaluation of the rolling window against the objectives."""

    samples: int
    p99_latency_seconds: float
    deadline_miss_fraction: float
    degraded_fraction: float
    latency_burn: float  # p99 / objective (1.0 = exactly at target)
    deadline_miss_burn: float  # miss fraction / budget
    degraded_burn: float  # degraded fraction / budget
    breaches: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict:
        return {
            "samples": self.samples,
            "p99_latency_seconds": self.p99_latency_seconds,
            "deadline_miss_fraction": self.deadline_miss_fraction,
            "degraded_fraction": self.degraded_fraction,
            "latency_burn": self.latency_burn,
            "deadline_miss_burn": self.deadline_miss_burn,
            "degraded_burn": self.degraded_burn,
            "breaches": list(self.breaches),
        }


class SloTracker:
    """Rolling-window SLO accounting over served requests."""

    def __init__(self, spec: Optional[SloSpec] = None):
        self.spec = spec or SloSpec()
        window = self.spec.window
        self._latencies: Deque[float] = deque(maxlen=window)
        self._misses: Deque[bool] = deque(maxlen=window)
        self._degraded: Deque[bool] = deque(maxlen=window)
        self.total = 0

    def observe(
        self, latency_seconds: float, deadline_missed: bool = False, degraded: bool = False
    ) -> None:
        self._latencies.append(float(latency_seconds))
        self._misses.append(bool(deadline_missed))
        self._degraded.append(bool(degraded))
        self.total += 1

    @staticmethod
    def _percentile(values: List[float], q: float) -> float:
        if not values:
            return float("nan")
        ordered = sorted(values)
        rank = (q / 100.0) * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        frac = rank - low
        return ordered[low] * (1.0 - frac) + ordered[high] * frac

    def status(self) -> Optional[SloStatus]:
        """Score the current window; None below ``min_samples``."""
        samples = len(self._latencies)
        if samples < self.spec.min_samples:
            return None
        p99 = self._percentile(list(self._latencies), 99.0)
        miss_fraction = sum(self._misses) / samples
        degraded_fraction = sum(self._degraded) / samples
        spec = self.spec
        latency_burn = p99 / spec.p99_latency_seconds if spec.p99_latency_seconds > 0 else 0.0
        miss_burn = (
            miss_fraction / spec.deadline_miss_budget if spec.deadline_miss_budget > 0 else 0.0
        )
        degraded_burn = (
            degraded_fraction / spec.degraded_budget if spec.degraded_budget > 0 else 0.0
        )
        breaches = []
        if latency_burn > 1.0:
            breaches.append("p99_latency")
        if miss_burn > 1.0:
            breaches.append("deadline_miss")
        if degraded_burn > 1.0:
            breaches.append("degraded")
        return SloStatus(
            samples=samples,
            p99_latency_seconds=p99,
            deadline_miss_fraction=miss_fraction,
            degraded_fraction=degraded_fraction,
            latency_burn=latency_burn,
            deadline_miss_burn=miss_burn,
            degraded_burn=degraded_burn,
            breaches=breaches,
        )


__all__ = [
    "DriftDetector",
    "DriftReport",
    "Ewma",
    "PageHinkley",
    "SloSpec",
    "SloStatus",
    "SloTracker",
]
